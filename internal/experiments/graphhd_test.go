package experiments

import (
	"strings"
	"testing"
)

func fastGraphHD() GraphHDConfig {
	cfg := DefaultGraphHDConfig()
	cfg.D = 4096
	cfg.TrainPerClass = 12
	cfg.TestPerClass = 8
	return cfg
}

func TestRunGraphHDBeatsChance(t *testing.T) {
	res := RunGraphHD(fastGraphHD())
	if res.Accuracy < 0.55 {
		t.Errorf("GraphHD accuracy %v too low (chance = 1/3)", res.Accuracy)
	}
	if res.Conf.Total() != 24 {
		t.Errorf("confusion total = %d", res.Conf.Total())
	}
}

func TestRunGraphHDDeterministic(t *testing.T) {
	if RunGraphHD(fastGraphHD()).Accuracy != RunGraphHD(fastGraphHD()).Accuracy {
		t.Error("equal-config GraphHD runs differ")
	}
}

func TestRunGraphHDStructureSensitive(t *testing.T) {
	// The small-world family has the most distinctive structure; its
	// recall should be at least as good as the overall accuracy.
	res := RunGraphHD(fastGraphHD())
	rec := res.Conf.PerClassRecall()
	if rec[2] < res.Accuracy-0.05 {
		t.Errorf("watts-strogatz recall %v below accuracy %v", rec[2], res.Accuracy)
	}
}

func TestRenderGraphHD(t *testing.T) {
	var b strings.Builder
	RenderGraphHD(&b, RunGraphHD(fastGraphHD()))
	for _, want := range []string{"GraphHD", "erdos-renyi", "watts-strogatz", "recall"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestRunGraphHDGolden pins the full confusion matrix of the fast
// configuration: the graph encodings feed a seeded classifier, so any
// change to the encoding bits (bundling kernel, vertex basis, tie vector)
// moves at least one prediction.
func TestRunGraphHDGolden(t *testing.T) {
	res := RunGraphHD(fastGraphHD())
	want := [3][3]int{{3, 5, 0}, {1, 7, 0}, {0, 0, 8}}
	for truth := range want {
		for pred := range want[truth] {
			if got := res.Conf.At(truth, pred); got != want[truth][pred] {
				t.Errorf("confusion[%d][%d] = %d, golden %d", truth, pred, got, want[truth][pred])
			}
		}
	}
}
