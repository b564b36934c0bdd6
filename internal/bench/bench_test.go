package bench

import (
	"strings"
	"testing"
)

// TestExperimentSmoke runs the two cheapest experiments in quick mode and
// checks the tables are well-formed; the full matrix runs from the root
// bench_test.go and cmd/benchrunner.
func TestExperimentSmoke(t *testing.T) {
	cfg := Config{Quick: true}
	picked, err := Select("E5,A1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range picked {
		tab := e.Run(cfg)
		if tab.ID != e.ID {
			t.Errorf("Experiments entry %s runs the experiment that reports itself as %s", e.ID, tab.ID)
		}
		if tab.ID == "" || tab.Title == "" || tab.PaperClaim == "" {
			t.Errorf("table metadata incomplete: %+v", tab)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Headers) {
				t.Errorf("%s: row width %d != headers %d", tab.ID, len(r), len(tab.Headers))
			}
		}
		out := tab.Format()
		if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Headers[0]) {
			t.Errorf("%s: Format output incomplete:\n%s", tab.ID, out)
		}
	}
}

// TestSelect pins the -only id parser: table order, case and blanks
// forgiven, and an id that names no experiment is an error naming the
// valid ones rather than an empty (vacuously passing) selection.
func TestSelect(t *testing.T) {
	ids := func(es []Experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return strings.Join(out, ",")
	}
	all := ids(Experiments)
	if all != "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,A1" {
		t.Fatalf("Experiments = %s", all)
	}
	for _, tc := range []struct{ only, want, errHas string }{
		{"", all, ""},
		{" , ", all, ""},
		{"E2", "E2", ""},
		{"a1, e8,E2", "E2,E8,A1", ""},
		{"W1", "", "unknown experiment id W1"},
		{"E2,S1,B1", "", "unknown experiment id B1,S1 (valid: " + all + ")"},
		{"E11", "", "unknown experiment id E11"},
	} {
		got, err := Select(tc.only)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("Select(%q) error = %v, want one containing %q", tc.only, err, tc.errHas)
			}
			continue
		}
		if err != nil || ids(got) != tc.want {
			t.Errorf("Select(%q) = %s, %v; want %s", tc.only, ids(got), err, tc.want)
		}
	}
}

func TestConfigPick(t *testing.T) {
	if (Config{Quick: true}).pick(1, 2) != 1 || (Config{}).pick(1, 2) != 2 {
		t.Error("Config.pick wrong")
	}
}
