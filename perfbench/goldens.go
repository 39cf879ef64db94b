package main

// goldenDigests are the output digests at the default seed and each
// workload's own size; `go run . --record --workload <name>` prints
// them. Outputs do not depend on the worker count, so a mismatch means
// the program now computes something else.
var goldenDigests = map[string]map[string]string{
	"census": {
		"ablation-flood-fanout": "1d741e41832e8a31",
		"ablation-observer-mix": "e2a16de68f26b6f7",
		"estimate-floodfill":    "449a375889ab1514",
		"figure-02":             "0946337c8ae86249",
		"figure-03":             "0abbcd6aa2dacda5",
		"figure-04":             "11bd6aa8afc4148e",
		"figure-05":             "ad88bcddb02eef12",
		"figure-06":             "1ea2c86211cd63b3",
		"figure-07":             "f3a09a68d44607cc",
		"figure-08":             "58dca06b655e1af6",
		"figure-09":             "35c0bb5d0a7b4743",
		"figure-10":             "77e78c84ee35007d",
		"figure-11":             "62d31d4af3f57712",
		"figure-12":             "b703d02b95772bd9",
		"table-01":              "79ac6ff82845bd15",
	},
	"blocking": {
		"bridge-strategies":        "a22ab9a4b7812a12",
		"dpi-fingerprinting":       "1fc49c1aa5579273",
		"eclipse-attack":           "72de93a4c935f9bf",
		"figure-13":                "da052bc6e04cb4f8",
		"figure-14":                "8c5a02f7469dd1a5",
		"port-blocking":            "47610247a144f49c",
		"reseed-blocking":          "ea5bdc2b27e900be",
		"bridge-distribution":      "537408256e91f5df",
		"distribution-enumeration": "41d6fdfc22ab335b",
		"trust-distribution":       "ec574b7af2f342ec",
	},
	"handout": {
		"bodies": "4e6e6378e981aba5",
	},
}

// metricKeys are the metrics each experiment registers; a run on any
// seed must produce exactly these.
var metricKeys = map[string][]string{
	"ablation-flood-fanout":    {"replicas_fanout_1", "replicas_fanout_3", "replicas_fanout_8"},
	"ablation-observer-mix":    {"all_ff", "all_nonff", "mixed"},
	"estimate-floodfill":       {"estimate_vs_actual", "floodfill_share", "population_estimate", "qualified_share"},
	"figure-02":                {"coverage_of_actives", "mean_daily_ff", "mean_daily_nonff", "nonff_over_ff"},
	"figure-03":                {"ff_advantage_at_128", "nonff_advantage_at_5mb", "union_max", "union_spread_ratio"},
	"figure-04":                {"share_at_1", "share_at_20", "tail_gain_per_router", "total_at_40"},
	"figure-05":                {"mean_daily_ips", "mean_daily_ipv4", "mean_daily_ipv6", "mean_daily_peers", "total_peers"},
	"figure-06":                {"mean_daily_firewalled", "mean_daily_hidden", "mean_daily_overlap", "mean_daily_unknown"},
	"figure-07":                {"continuous_30d", "continuous_7d", "intermittent_30d", "intermittent_7d", "km_intermittent_30d", "km_intermittent_7d"},
	"figure-08":                {"histogram_total", "multi_ip_pct", "over100_ip_pct", "single_ip_pct"},
	"figure-09":                {"mean_daily_K", "mean_daily_L", "mean_daily_M", "mean_daily_N", "mean_daily_O", "mean_daily_P", "mean_daily_X"},
	"figure-10":                {"big6_share_pct", "censored_countries", "censored_peers", "cn_peers", "top20_share_pct", "us_peers"},
	"figure-11":                {"as7922_peers", "top20_share_pct"},
	"figure-12":                {"max_ases", "over10_as_pct", "single_as_pct"},
	"table-01":                 {"floodfill_L_pct", "floodfill_N_pct", "reachable_L_pct", "total_L_pct", "total_N_pct", "unreachable_L_pct"},
	"bridge-strategies":        {"combined_final", "combined_initial", "firewalled_final", "firewalled_initial", "newly-joined_final", "newly-joined_initial", "random_final", "random_initial"},
	"dpi-fingerprinting":       {"ntcp2_detection_rate", "ntcp_detection_rate"},
	"eclipse-attack":           {"attacker_share_10routers", "attacker_share_20routers", "attacker_share_2routers", "attacker_share_6routers", "injected"},
	"figure-13":                {"rate_10routers_5day", "rate_20routers_1day", "rate_20routers_30day", "rate_2routers_1day", "rate_6routers_1day"},
	"figure-14":                {"load_65_s", "load_80_s", "load_unblocked_s", "timeout_65_pct", "timeout_80_pct", "timeout_95_pct", "timeout_unblocked_pct"},
	"port-blocking":            {"address_collateral_pct", "collateral_pct", "i2p_blocked_pct", "webrtc_collateral_pct"},
	"reseed-blocking":          {"blocked_bootstrap_fail", "bootstrap_records", "manual_records"},
	"bridge-distribution":      {"email_crawler_bootstrap_final", "email_crawler_enumerated_final", "email_insider_bootstrap_final", "email_insider_enumerated_final", "email_sybil_bootstrap_final", "email_sybil_enumerated_final", "https_crawler_bootstrap_final", "https_crawler_enumerated_final", "https_insider_bootstrap_final", "https_insider_enumerated_final", "https_sybil_bootstrap_final", "https_sybil_enumerated_final", "manual-reseed_crawler_bootstrap_final", "manual-reseed_crawler_enumerated_final", "manual-reseed_insider_bootstrap_final", "manual-reseed_insider_enumerated_final", "manual-reseed_sybil_bootstrap_final", "manual-reseed_sybil_enumerated_final", "social_crawler_bootstrap_final", "social_crawler_enumerated_final", "social_insider_bootstrap_final", "social_insider_enumerated_final", "social_sybil_bootstrap_final", "social_sybil_enumerated_final"},
	"distribution-enumeration": {"email_crawler_bootstrap_final", "email_crawler_days_to_half", "email_sybil_bootstrap_final", "email_sybil_days_to_half", "https_crawler_bootstrap_final", "https_crawler_days_to_half", "https_sybil_bootstrap_final", "https_sybil_days_to_half", "manual-reseed_crawler_bootstrap_final", "manual-reseed_crawler_days_to_half", "manual-reseed_sybil_bootstrap_final", "manual-reseed_sybil_days_to_half", "social_crawler_bootstrap_final", "social_crawler_days_to_half", "social_sybil_bootstrap_final", "social_sybil_days_to_half"},
	"trust-distribution":       {"trust-social_crawler_banned_final", "trust-social_crawler_bootstrap_final", "trust-social_crawler_enumerated_final", "trust-social_insider_banned_final", "trust-social_insider_bootstrap_final", "trust-social_insider_enumerated_final", "trust-strict_crawler_banned_final", "trust-strict_crawler_bootstrap_final", "trust-strict_crawler_enumerated_final", "trust-strict_insider_banned_final", "trust-strict_insider_bootstrap_final", "trust-strict_insider_enumerated_final"},
}
