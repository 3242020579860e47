package main

import (
	"testing"

	"github.com/uteda/gmap/internal/prefetch"
)

// TestPrefetchConfigs pins how the prefetch flags become configuration
// values: a prefetcher left off is the zero value whatever its other
// flags say, one turned on carries its flags, and an invalid one fails
// with its validation message before any simulation.
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
		wantStride prefetch.StrideConfig
		wantStream prefetch.StreamConfig
		wantErr    string
	}{
		// Degree and window 0 would be rejected were the prefetchers on.
		{name: "off"},
		{name: "l1", l1: true, l1Degree: 4, wantStride: stride},
		{name: "l2", l2: true, l2Window: 32, l2Degree: 8, wantStream: stream},
		{name: "l1-degree-0", l1: true, wantErr: "prefetch: stride degree 0"},
		{name: "l2-window-0", l2: true, l2Degree: 2, wantErr: "prefetch: stream window 0 / degree 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotStride, gotStream, err := prefetchConfigs(tc.l1, tc.l1Degree, tc.l2, tc.l2Window, tc.l2Degree, 64)
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
