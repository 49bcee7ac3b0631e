package experiments

import "testing"

// BenchmarkScheduleRound1024 measures one full scheduling round on the
// saturated 1024-GPU deep-queue fixture (see hotpath.go) with the
// indexed placement path; BenchmarkScheduleRound1024Scan is the
// decision-identical scan baseline. The pair backs the scale rows in
// the gpufaas-bench/v1 snapshot.
func BenchmarkScheduleRound1024(b *testing.B) { scheduleRound1024(b, false) }

// BenchmarkScheduleRound1024Scan is the reference scan baseline.
func BenchmarkScheduleRound1024Scan(b *testing.B) { scheduleRound1024(b, true) }

// BenchmarkLaunchComplete1024 measures what the GPU manager adds to a
// dispatched request at the same fleet size: one cache-hit launch plus the
// engine event that completes it (the launch_complete/1024gpus row).
func BenchmarkLaunchComplete1024(b *testing.B) { launchComplete1024(b) }

// BenchmarkStreamingReplay replays the 64-GPU / 6-minute scale cell end
// to end through trace.ArrivalStream + cluster.RunWorkloadStream — the
// full O(in-flight) pipeline, reported as requests simulated per second
// of wall time.
func BenchmarkStreamingReplay(b *testing.B) {
	p := streamingReplayParams()
	var requests int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := Run(p)
		if err != nil {
			b.Fatal(err)
		}
		requests = row.Requests
	}
	b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
	b.ReportMetric(float64(requests), "requests")
}
