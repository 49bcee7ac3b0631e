package experiments

import (
	"testing"

	"gpufaas/internal/models"
)

// BenchmarkWorkloadBuild measures what a figure cell pays for its workload
// before its cluster exists: one Fig. 4 cell's Workload per op, cycling the
// paper's working sets 15/25/35 over seeds 1–6 as the grid does.
func BenchmarkWorkloadBuild(b *testing.B) {
	var cells []WorkloadParams
	for seed := int64(1); seed <= 6; seed++ {
		for _, ws := range PaperWorkingSets {
			p := DefaultWorkload(ws)
			p.Seed = seed
			cells = append(cells, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Workload(cells[i%len(cells)], models.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
