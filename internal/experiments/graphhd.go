package experiments

import (
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/embed"
	"hdcirc/internal/graph"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
	"hdcirc/internal/stats"
)

// GraphHD extension (Nunes et al., DATE 2022 — the paper's reference [31]):
// a graph is encoded as the bundle of its edges, each edge being the
// binding of its endpoints' vertex hypervectors, with vertices assigned
// basis vectors by centrality rank so structurally similar graphs share
// encodings. We classify three synthetic random-graph families that differ
// only in structure.

// GraphHDConfig parameterizes the graph-classification extension.
type GraphHDConfig struct {
	D             int
	Vertices      int // vertices per graph
	TrainPerClass int
	TestPerClass  int
	Seed          uint64
}

// DefaultGraphHDConfig gives three separable-but-not-trivial families.
func DefaultGraphHDConfig() GraphHDConfig {
	return GraphHDConfig{D: 10000, Vertices: 40, TrainPerClass: 30, TestPerClass: 20, Seed: DefaultSeed}
}

// graphFamilies lists the class names in label order.
var graphFamilies = []string{"erdos-renyi", "pref-attach", "watts-strogatz"}

// genGraph draws one graph of the given class with matched average degree
// (~4), so density alone cannot separate the families.
func genGraph(class int, n int, r *rng.Stream) *graph.Graph {
	switch class {
	case 0:
		return graph.ErdosRenyi(n, 4/float64(n-1), r)
	case 1:
		return graph.PreferentialAttachment(n, 2, r)
	default:
		return graph.WattsStrogatz(n, 4, 0.1, r)
	}
}

// GraphHDResult is the outcome of the graph-classification extension.
type GraphHDResult struct {
	Accuracy float64
	Conf     *stats.Confusion
}

// RunGraphHD trains the centroid classifier on the three graph families
// and returns test accuracy.
func RunGraphHD(cfg GraphHDConfig) GraphHDResult {
	basis := core.RandomSet(cfg.Vertices, cfg.D, rng.Sub(cfg.Seed, "graphhd/basis"))
	tieVec := bitvec.Random(cfg.D, rng.Sub(cfg.Seed, "graphhd/ties"))

	gen := func(label string, per int) ([]*bitvec.Vector, []int) {
		stream := rng.Sub(cfg.Seed, "graphhd/"+label)
		var hvs []*bitvec.Vector
		var labels []int
		for class := range graphFamilies {
			for i := 0; i < per; i++ {
				g := genGraph(class, cfg.Vertices, stream)
				hvs = append(hvs, embed.EncodeGraph(g, basis, tieVec))
				labels = append(labels, class)
			}
		}
		return hvs, labels
	}

	trainHVs, trainLabels := gen("train", cfg.TrainPerClass)
	testHVs, testLabels := gen("test", cfg.TestPerClass)

	clf := model.NewClassifier(len(graphFamilies), cfg.D, cfg.Seed^hash("graphhd/clf"))
	for i, hv := range trainHVs {
		clf.Add(trainLabels[i], hv)
	}
	conf := stats.NewConfusion(len(graphFamilies))
	for i, hv := range testHVs {
		pred, _ := clf.Predict(hv)
		conf.Observe(testLabels[i], pred)
	}
	return GraphHDResult{Accuracy: conf.Accuracy(), Conf: conf}
}

// RenderGraphHD writes the graph-classification result with per-family
// recall.
func RenderGraphHD(w io.Writer, res GraphHDResult) {
	fmt.Fprintf(w, "Extension — GraphHD: %d graph families, accuracy %.1f%%\n",
		len(graphFamilies), 100*res.Accuracy)
	for i, rec := range res.Conf.PerClassRecall() {
		fmt.Fprintf(w, "  %-16s recall %.1f%%\n", graphFamilies[i], 100*rec)
	}
}
