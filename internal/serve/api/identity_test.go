package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/serve/store"
	"github.com/uteda/gmap/internal/workloads"
)

var update = flag.Bool("update", false, "re-record testdata/job_identity.json")

// identityProfile is the profile hash the clone and sim cases name. Only
// its presence in the store matters to Normalize, so the golden does not
// move when the profiler does.
var identityProfile = store.HashBytes([]byte("job identity golden"))

// jobIdentity is one pinned spec: the submitted JSON and everything a
// store keys on after normalization.
type jobIdentity struct {
	Name        string `json:"name"`
	Submitted   string `json:"submitted"`
	Normalized  string `json:"normalized"`
	ProfileHash string `json:"profile_hash"`
	ConfigHash  string `json:"config_hash"`
	JobID       string `json:"job_id"`
}

// TestJobIdentityGolden pins the cache and journal coordinates of clone,
// sim and sweep specs. Existing stores find cached results and recover
// journaled jobs by these values, so a change to JobSpec's shape or
// normalization must leave every line of testdata/job_identity.json
// alone. Run with -update to re-record.
func TestJobIdentityGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Root(), "profiles", identityProfile+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	all, err := json.Marshal(workloads.Names())
	if err != nil {
		t.Fatal(err)
	}
	p := `"profile":"` + identityProfile + `"`
	cases := []struct{ name, spec string }{
		{"clone-default", `{"kind":"clone",` + p + `}`},
		{"clone-explicit-defaults", `{"kind":"clone",` + p + `,"seed":1,"scale_factor":4,"scale":1,"cores":0}`},
		{"clone-seed7", `{"kind":"clone",` + p + `,"seed":7}`},
		{"clone-seed7-obfuscate", `{"kind":"clone",` + p + `,"seed":7,"obfuscate":true}`},
		{"clone-seed7-obfuscate-off", `{"kind":"clone",` + p + `,"seed":7,"obfuscate":false}`},
		{"sim-default", `{"kind":"sim",` + p + `}`},
		{"sim-cores4-sf8", `{"kind":"sim",` + p + `,"cores":4,"scale_factor":8}`},
		{"sim-obfuscate", `{"kind":"SIM ",` + p + `,"obfuscate":true}`},
		{"sweep-fig6a-default", `{"kind":"sweep","experiment":"fig6a"}`},
		{"sweep-fig6a-all-explicit", `{"kind":"sweep","experiment":"fig6a","benchmarks":` + string(all) + `,"seed":1,"scale":1,"scale_factor":4}`},
		{"sweep-fig6a-subset", `{"kind":"sweep","experiment":"fig6a","benchmarks":["nn","scalarprod"],"cores":4}`},
		{"sweep-fig6a-subset-reordered", `{"kind":"sweep","experiment":"fig6a","benchmarks":["scalarprod","nn"],"cores":4}`},
		{"sweep-all-scaled", `{"kind":"sweep","experiment":"all","scale":2,"scale_factor":8,"seed":3}`},
		{"sweep-table1-subset", `{"kind":"sweep","experiment":"table1","benchmarks":["aes","bfs"],"seed":1,"scale_factor":4}`},
		{"sweep-fig8-obfuscate", `{"kind":"sweep","experiment":"fig8","benchmarks":["nn"],"obfuscate":true}`},
	}
	var got []jobIdentity
	for _, c := range cases {
		var spec JobSpec
		dec := json.NewDecoder(strings.NewReader(c.spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := spec.Normalize(st); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		norm, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		ph, ch, id, err := spec.hashes()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, jobIdentity{
			Name: c.name, Submitted: c.spec, Normalized: string(norm),
			ProfileHash: ph, ConfigHash: ch, JobID: id,
		})
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "job_identity.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(data, want) {
		var pinned []jobIdentity
		if err := json.Unmarshal(want, &pinned); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(pinned) || got[i] != pinned[i] {
				t.Errorf("job identity changed:\n got %+v", got[i])
				if i < len(pinned) {
					t.Errorf("want %+v", pinned[i])
				}
			}
		}
		if len(pinned) != len(got) {
			t.Errorf("golden pins %d specs, test has %d", len(pinned), len(got))
		}
	}
}
