package checkpoint

import "fmt"

// Rows is the sweep engines' one load/scatter/countdown/gather/save
// loop, for grids whose cell i belongs to row i % rows; a finished row
// is one unit "row-NNN" holding its cells in index order. One row's
// Done and Finish calls must not overlap, as measure.FanRows guarantees
// by running each row on one worker, so the countdown is a plain int.
type Rows[T any] struct {
	store *Store // nil: no checkpoint directory
	out   []T
	left  []int // cells of each row still to compute
}

// OpenRows opens dir for the run described by m and loads every
// finished row into out: row r's j-th cell lands in out[r+j*rows].
// dir == "" means no store: every row is computed and nothing is
// written. A row unit of the wrong length fails with ErrCorrupt.
func OpenRows[T any](dir string, m Manifest, out []T, rows int) (*Rows[T], error) {
	r := &Rows[T]{out: out, left: make([]int, rows)}
	for i := range out {
		r.left[i%rows]++
	}
	if dir == "" {
		return r, nil
	}
	var err error
	if r.store, err = Open(dir, m); err != nil {
		return nil, err
	}
	for row, n := range r.left {
		var saved []T
		switch ok, err := r.store.LoadJSON(rowKey(row), &saved); {
		case err != nil:
			return nil, err
		case !ok:
			continue
		case len(saved) != n:
			return nil, fmt.Errorf("%w: %s has %d cells, grid expects %d", ErrCorrupt, rowKey(row), len(saved), n)
		}
		for j, v := range saved {
			out[row+j*rows] = v
		}
		r.left[row] = 0
	}
	return r, nil
}

// Done reports whether row was loaded or has finished its last cell.
func (r *Rows[T]) Done(row int) bool { return r.left[row] == 0 }

// Finish records that out[i] holds its final value; the row's last
// cell commits the whole row.
func (r *Rows[T]) Finish(i int) error {
	rows := len(r.left)
	row := i % rows
	if r.left[row]--; r.left[row] > 0 || r.store == nil {
		return nil
	}
	saved := make([]T, 0, (len(r.out)-row+rows-1)/rows)
	for j := row; j < len(r.out); j += rows {
		saved = append(saved, r.out[j])
	}
	return r.store.SaveJSON(rowKey(row), saved)
}

func rowKey(row int) string { return fmt.Sprintf("row-%03d", row) }
