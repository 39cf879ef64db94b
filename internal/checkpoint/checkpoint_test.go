package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/churn"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func manifest() Manifest {
	return Manifest{Engine: "test.Engine", Version: 1, ConfigHash: 0xabc, Seed: 7}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, manifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("row-001"); err != nil || ok {
		t.Fatalf("Load before Save: ok=%v err=%v", ok, err)
	}
	if err := s.Save("row-001", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Load("row-001")
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Load = %q ok=%v err=%v", data, ok, err)
	}
	// No staging orphan left behind by a clean commit.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != manifestName && e.Name() != "row-001" {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

func TestJSONRoundTripPreservesNilVsEmpty(t *testing.T) {
	type unit struct {
		Vals  []float64
		Empty []float64
		Nil   []float64
	}
	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	want := unit{Vals: []float64{0.1, 2e-300, 3}, Empty: []float64{}}
	if err := s.SaveJSON("u", want); err != nil {
		t.Fatal(err)
	}
	var got unit
	if ok, err := s.LoadJSON("u", &got); err != nil || !ok {
		t.Fatalf("LoadJSON ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %#v, want %#v", got, want)
	}
}

func TestReopenSameManifestKeepsUnits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("row-000", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, manifest())
	if err != nil {
		t.Fatalf("reopen with identical manifest: %v", err)
	}
	if _, ok, err := s2.Load("row-000"); err != nil || !ok {
		t.Fatalf("unit lost across reopen: ok=%v err=%v", ok, err)
	}
}

// Satellite: resuming with a different seed, config hash, or engine
// version must fail loudly with a typed error, never silently merge.
func TestManifestMismatchIsTypedAndLoud(t *testing.T) {
	base := manifest()
	cases := []struct {
		name  string
		mut   func(*Manifest)
		field string
	}{
		{"seed", func(m *Manifest) { m.Seed = 8 }, "seed"},
		{"config-hash", func(m *Manifest) { m.ConfigHash = 0xdef }, "config_hash"},
		{"engine-version", func(m *Manifest) { m.Version = 2 }, "version"},
		{"engine-name", func(m *Manifest) { m.Engine = "other.Engine" }, "engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save("row-000", []byte("stale")); err != nil {
				t.Fatal(err)
			}
			want := base
			tc.mut(&want)
			_, err = Open(dir, want)
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("Open with mutated %s: err = %v, want *MismatchError", tc.name, err)
			}
			if mm.Field != tc.field {
				t.Fatalf("MismatchError.Field = %q, want %q", mm.Field, tc.field)
			}
			// The stale unit must be untouched: refusing means not merging
			// AND not deleting someone else's state.
			if _, err := os.Stat(filepath.Join(dir, "row-000")); err != nil {
				t.Fatalf("mismatch handling disturbed prior state: %v", err)
			}
		})
	}
}

func TestCorruptManifestRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, manifest()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a corrupt manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenSweepsStagingOrphans(t *testing.T) {
	dir := t.TempDir()
	// A crash between stage and rename leaves a "."-prefixed tmp file.
	if err := os.WriteFile(filepath.Join(dir, ".row-042.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Orphans can also be directories (snapshotter stages whole day dirs).
	if err := os.MkdirAll(filepath.Join(dir, ".day-003.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, manifest())
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{".row-042.tmp", ".day-003.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, orphan)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived Open: %v", orphan, err)
		}
	}
	// And the partial unit is invisible to Load.
	if _, ok, _ := s.Load("row-042"); ok {
		t.Fatal("partial staging file mistaken for a committed unit")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", ".hidden", "a/b", `a\b`, manifestName} {
		if err := s.Save(bad, []byte("x")); err == nil {
			t.Errorf("Save(%q) succeeded, want error", bad)
		}
		if _, _, err := s.Load(bad); err == nil {
			t.Errorf("Load(%q) succeeded, want error", bad)
		}
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists on empty dir")
	}
	if _, err := Open(dir, manifest()); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists after Open")
	}
}

func TestHasherDistinguishesFieldBoundaries(t *testing.T) {
	type pair struct{ A, B string }
	if HashConfig(pair{"ab", "c"}) == HashConfig(pair{"a", "bc"}) {
		t.Fatal("length-prefixed strings collided across boundaries")
	}
	if HashConfig("ab", "c") == HashConfig("a", "bc") {
		t.Fatal("length-prefixed configs collided across boundaries")
	}
	if HashConfig(1) == HashConfig(2) {
		t.Fatal("ints collided")
	}
	if HashConfig(0.1) == HashConfig(0.2) {
		t.Fatal("floats collided")
	}
	if HashConfig(uint64(7)) != HashConfig(uint64(7)) {
		t.Fatal("hash not deterministic")
	}
}

// shape is a synthetic config covering every kind HashConfig walks,
// including unexported fields reached through an interface.
type shape struct {
	B       bool
	I       int
	I8      int8
	U       uint32
	F       float64
	F32     float32
	S       string
	Slice   []int
	Arr     [2]string
	Ptr     *inner
	Iface   any
	Nested  inner
	Workers int `checkpoint:"-"`
}

type inner struct {
	name  string
	cost  float64
	ids   []uint64
	child *inner
}

func newShape() shape {
	return shape{
		B: true, I: -3, I8: 4, U: 5, F: 0.25, F32: 1.5, S: "s",
		Slice:  []int{1, 2},
		Arr:    [2]string{"x", "y"},
		Ptr:    &inner{name: "p", ids: []uint64{9}},
		Iface:  &inner{name: "hidden", cost: 40, child: &inner{name: "leaf"}},
		Nested: inner{name: "n", cost: 2},
	}
}

func TestHashConfigWalksEveryKind(t *testing.T) {
	base := HashConfig(newShape())
	if got := HashConfig(newShape()); got != base {
		t.Fatalf("equal values built separately hash %x and %x", got, base)
	}
	excluded := newShape()
	excluded.Workers = 64
	if HashConfig(excluded) != base {
		t.Fatal(`a checkpoint:"-" field changed the hash`)
	}
	muts := map[string]func(*shape){
		"bool":                   func(s *shape) { s.B = false },
		"int":                    func(s *shape) { s.I++ },
		"int8":                   func(s *shape) { s.I8++ },
		"uint":                   func(s *shape) { s.U++ },
		"float64":                func(s *shape) { s.F += 1 },
		"float32":                func(s *shape) { s.F32 += 1 },
		"string":                 func(s *shape) { s.S += "x" },
		"slice element":          func(s *shape) { s.Slice[1]++ },
		"slice length":           func(s *shape) { s.Slice = s.Slice[:1] },
		"array element":          func(s *shape) { s.Arr[0] = "z" },
		"nil pointer":            func(s *shape) { s.Ptr = nil },
		"pointer target":         func(s *shape) { s.Ptr.ids[0]++ },
		"nil interface":          func(s *shape) { s.Iface = nil },
		"interface dynamic type": func(s *shape) { s.Iface = inner{name: "hidden", cost: 40} },
		"unexported via interface": func(s *shape) {
			s.Iface.(*inner).cost = 41
		},
		"unexported via interface chain": func(s *shape) {
			s.Iface.(*inner).child.name = "other"
		},
		"nested unexported": func(s *shape) { s.Nested.name = "m" },
	}
	for name, mut := range muts {
		s := newShape()
		mut(&s)
		if HashConfig(s) == base {
			t.Errorf("%s: changing it left the hash unchanged", name)
		}
	}
}

// TestHashConfigWalksNetworkOverrides pins the network config's
// pointer-held overrides into the hash by value: two separately built
// copies agree, and a single churn or observation constant differs.
func TestHashConfigWalksNetworkOverrides(t *testing.T) {
	build := func() sim.Config {
		ch, ob := churn.DefaultConfig(), sim.DefaultObservation()
		return sim.Config{Seed: 1, Days: 40, TargetDailyPeers: 300, Churn: &ch, Observation: &ob}
	}
	base := HashConfig(build())
	if HashConfig(build()) != base {
		t.Fatal("equal network configs built separately hash differently")
	}
	for name, mut := range map[string]func(*sim.Config){
		"seed":        func(c *sim.Config) { c.Seed++ },
		"churn":       func(c *sim.Config) { c.Churn.IPv6Frac += 0.01 },
		"observation": func(c *sim.Config) { c.Observation.HiddenAffinity += 0.01 },
		"default":     func(c *sim.Config) { c.Churn = nil },
	} {
		c := build()
		mut(&c)
		if HashConfig(c) == base {
			t.Errorf("%s: changing it left the hash unchanged", name)
		}
	}
}

func TestHashConfigPanicsWithPathOnUnhashableKinds(t *testing.T) {
	type holder struct {
		Inner struct{ M map[string]int }
	}
	cases := map[string]struct {
		cfg  any
		path string
	}{
		"map":  {holder{}, "checkpoint.holder.Inner.M"},
		"func": {struct{ Fns []func() }{[]func(){nil}}, ".Fns[0]"},
		"chan": {struct{ Ch chan int }{}, ".Ch"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.path) {
					t.Fatalf("panic %q does not name the field path %q", msg, tc.path)
				}
			}()
			HashConfig(tc.cfg)
		})
	}
}

func TestRowsScatterSpillAndResume(t *testing.T) {
	const rows = 3
	dir := t.TempDir()
	want := []int{10, 11, 12, 13, 14, 15, 16}
	out := make([]int, len(want))
	r, err := OpenRows(dir, manifest(), out, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Finish every cell of rows 0 and 2; row 1 stays open.
	for i := range want {
		if i%rows == 1 {
			continue
		}
		out[i] = want[i]
		if err := r.Finish(i); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Done(0) || r.Done(1) || !r.Done(2) {
		t.Fatalf("Done = %v %v %v, want true false true", r.Done(0), r.Done(1), r.Done(2))
	}
	if _, err := os.Stat(filepath.Join(dir, "row-001")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unfinished row was spilled: %v", err)
	}
	resumed := make([]int, len(want))
	r2, err := OpenRows(dir, manifest(), resumed, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if i%rows == 1 {
			if r2.Done(1) || resumed[i] != 0 {
				t.Fatalf("open row 1 resumed as done (cell %d = %d)", i, resumed[i])
			}
			continue
		}
		if resumed[i] != want[i] {
			t.Fatalf("resumed cell %d = %d, want %d", i, resumed[i], want[i])
		}
	}
	if !r2.Done(0) || !r2.Done(2) {
		t.Fatal("loaded rows not reported done")
	}
}

func TestRowsWithoutDirStillCountsDown(t *testing.T) {
	out := make([]int, 4)
	r, err := OpenRows("", manifest(), out, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if r.Done(i % 2) {
			t.Fatalf("row %d done before its cells ran", i%2)
		}
		if err := r.Finish(i); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Done(0) || !r.Done(1) {
		t.Fatal("finished rows not reported done")
	}
}

func TestRowsRefuseCorruptUnits(t *testing.T) {
	for name, unit := range map[string]string{
		"truncated":    "[1,",
		"wrong length": "[1,2,3]",
		"wrong type":   `["a","b"]`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Open(dir, manifest()); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "row-000"), []byte(unit), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenRows(dir, manifest(), make([]int, 4), 2); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenRows on a %s unit: err = %v, want ErrCorrupt", name, err)
			}
		})
	}
}

// FuzzOpenRows feeds arbitrary bytes to OpenRows as the manifest and as
// a row unit: it must accept them, refuse them as another run's state,
// or report them corrupt — never panic or fail any other way.
func FuzzOpenRows(f *testing.F) {
	valid := mustJSON(manifest())
	f.Add(valid, []byte("[1,2]"))
	f.Add(valid, []byte("[1,"))
	f.Add(valid, []byte("[1,2,3]"))
	f.Add([]byte(`{"engine":"other"}`), []byte("[1,2]"))
	f.Add([]byte("{"), []byte("null"))
	f.Fuzz(func(t *testing.T, man, row []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "row-000"), row, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenRows(dir, manifest(), make([]int, 4), 2)
		var mm *MismatchError
		if err != nil && !errors.As(err, &mm) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenRows: unexpected error %v", err)
		}
	})
}

func TestObsCountersTrackSpillAndResume(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t.Cleanup(func() { obs.Enable(nil) })

	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	if err := s.Save("row-000", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("row-000"); err != nil || !ok {
		t.Fatalf("Load ok=%v err=%v", ok, err)
	}
	st := ckptStats.Get()
	if got := st.rowsWritten.Load(); got != 1 {
		t.Errorf("rows_written = %d, want 1", got)
	}
	if got := st.rowsResumed.Load(); got != 1 {
		t.Errorf("rows_resumed = %d, want 1", got)
	}
	if got := st.bytesSpilled.Load(); got != uint64(len(payload)) {
		t.Errorf("bytes_spilled = %d, want %d", got, len(payload))
	}
	// The families render on /metrics-style output.
	text := reg.RenderText()
	for _, name := range []string{
		"i2p_checkpoint_rows_written_total",
		"i2p_checkpoint_rows_resumed_total",
		"i2p_checkpoint_bytes_spilled_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from render", name)
		}
	}
}

func TestWriteFileAtomicCommitsAndOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.txt")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("content = %q, want %q", got, "first")
	}
	// Overwriting an existing file goes through the same staged commit.
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
	// No staging residue either way.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("staging file left behind: %s", e.Name())
		}
	}
	// A relative path with no directory component stages in ".".
	t.Chdir(dir)
	if err := WriteFileAtomic("bare.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "bare.txt")); string(got) != "x" {
		t.Fatal("bare-name write missing")
	}
}

func TestSyncTreeWalksFilesAndDirs(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "netDb", "deep")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		name := filepath.Join(sub, "routerInfo-"+strings.Repeat("a", i)+".dat")
		if err := os.WriteFile(name, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := SyncTree(root); err != nil {
		t.Fatal(err)
	}
	if err := SyncTree(filepath.Join(root, "no-such-dir")); err == nil {
		t.Fatal("SyncTree on a missing root must error")
	}
}
