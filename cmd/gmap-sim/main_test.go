package main

import (
	"testing"

	"github.com/uteda/gmap/internal/prefetch"
)

// TestPrefetchConfigs pins how the prefetch flags become configuration
// values: a prefetcher left off is the zero value whatever its tuning
// flags' defaults say, one turned on carries its flags, an invalid one
// fails with its validation message before any simulation, and a tuning
// flag given without its prefetcher's switch fails naming the switch.
func TestPrefetchConfigs(t *testing.T) {
	stride := prefetch.DefaultStrideConfig()
	stride.Degree = 4
	stream := prefetch.StreamConfig{Streams: 16, Window: 32, Degree: 8, LineSize: 64}
	cases := []struct {
		name       string
		l1         bool
		l1Degree   int
		l2         bool
		l2Window   int
		l2Degree   int
		set        []string // flags given on the command line
		wantStride prefetch.StrideConfig
		wantStream prefetch.StreamConfig
		wantErr    string
	}{
		// Degree and window 0 would be rejected were the prefetchers on.
		{name: "off"},
		{name: "l1", l1: true, l1Degree: 4, set: []string{"l1-prefetch", "l1-prefetch-degree"}, wantStride: stride},
		{name: "l2", l2: true, l2Window: 32, l2Degree: 8, set: []string{"l2-prefetch", "l2-prefetch-window", "l2-prefetch-degree"}, wantStream: stream},
		{name: "l1-degree-0", l1: true, wantErr: "prefetch: stride degree 0"},
		{name: "l2-window-0", l2: true, l2Degree: 2, wantErr: "prefetch: stream window 0 / degree 2"},
		{name: "l1-degree-without-switch", l1Degree: 4, set: []string{"l1-prefetch-degree"}, wantErr: "-l1-prefetch-degree needs -l1-prefetch"},
		{name: "l2-window-without-switch", l2Degree: 2, set: []string{"l2-prefetch-window"}, wantErr: "-l2-prefetch-window needs -l2-prefetch"},
		{name: "l2-degree-without-switch", l2Window: 16, l2Degree: 8, set: []string{"l1-prefetch", "l2-prefetch-degree"}, l1: true, l1Degree: 2, wantErr: "-l2-prefetch-degree needs -l2-prefetch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			gotStride, gotStream, err := prefetchConfigs(tc.l1, tc.l1Degree, tc.l2, tc.l2Window, tc.l2Degree, 64, set)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if gotStride != tc.wantStride || gotStream != tc.wantStream {
				t.Errorf("got %+v / %+v, want %+v / %+v", gotStride, gotStream, tc.wantStride, tc.wantStream)
			}
		})
	}
}
