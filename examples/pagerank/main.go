// PageRank: real power iteration over a synthetic web graph with the
// dataflow API (the workload where the paper's dynamic solution shines,
// −54% in Fig. 8b), followed by the paper-scale analytic comparison.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"sae"
)

const (
	vertices   = 3000
	iterations = 3
	damping    = 0.85
)

func main() {
	realPageRank()
	paperComparison()
}

func realPageRank() {
	fmt.Println("== part 1: real PageRank iterations (dataflow API) ==")
	// Synthetic graph with a skewed out-degree distribution and two
	// obvious hubs every vertex links to.
	rng := rand.New(rand.NewSource(11))
	var edges []sae.Pair[int, int]
	for v := 0; v < vertices; v++ {
		edges = append(edges, sae.Pair[int, int]{Key: v, Value: 0})
		edges = append(edges, sae.Pair[int, int]{Key: v, Value: 1})
		for d := 0; d < 1+rng.Intn(4); d++ {
			edges = append(edges, sae.Pair[int, int]{Key: v, Value: rng.Intn(vertices)})
		}
	}

	ctx, err := sae.NewContext(sae.ContextOptions{Policy: sae.Adaptive()})
	if err != nil {
		log.Fatal(err)
	}
	links := sae.GroupByKey(sae.Parallelize(ctx, edges, 16), 16)

	ranks := make(map[int]float64, vertices)
	for v := 0; v < vertices; v++ {
		ranks[v] = 1.0
	}
	var totalVirtual float64
	for it := 1; it <= iterations; it++ {
		// contributions: each vertex splits its rank across its links.
		r := ranks
		contribs := sae.FlatMap(links, func(p sae.Pair[int, []int]) []sae.Pair[int, float64] {
			share := r[p.Key] / float64(len(p.Value))
			out := make([]sae.Pair[int, float64], len(p.Value))
			for i, dst := range p.Value {
				out[i] = sae.Pair[int, float64]{Key: dst, Value: share}
			}
			return out
		})
		summed := sae.ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, 16)
		newRanks := sae.MapData(summed, func(p sae.Pair[int, float64]) sae.Pair[int, float64] {
			return sae.Pair[int, float64]{Key: p.Key, Value: (1 - damping) + float64(damping*p.Value)}
		})
		out, rep, err := sae.Collect(newRanks)
		if err != nil {
			log.Fatal(err)
		}
		next := make(map[int]float64, vertices)
		for v := 0; v < vertices; v++ {
			next[v] = 1 - damping // dangling default
		}
		for _, p := range out {
			next[p.Key] = p.Value
		}
		ranks = next
		totalVirtual += rep.Runtime.Seconds()
		fmt.Printf("iteration %d: %.2fs virtual, %d stages\n", it, rep.Runtime.Seconds(), len(rep.Stages))
	}

	// The two hubs must outrank everything else.
	type vr struct {
		v int
		r float64
	}
	var all []vr
	for v, r := range ranks {
		all = append(all, vr{v, r})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r > all[j].r })
	fmt.Printf("top ranks after %d iterations (total %.2fs virtual):\n", iterations, totalVirtual)
	for _, x := range all[:4] {
		fmt.Printf("  vertex %4d  rank %.2f\n", x.v, x.r)
	}
	if !((all[0].v == 0 || all[0].v == 1) && (all[1].v == 0 || all[1].v == 1)) {
		log.Fatalf("hub vertices should rank first, got %v", all[:2])
	}
	fmt.Println()
}

func paperComparison() {
	fmt.Println("== part 2: paper-scale PageRank, default vs dynamic (Fig. 8b) ==")
	setup := sae.DAS5()
	def, err := sae.Run(setup, sae.PageRank(sae.PaperScale()), sae.Default())
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := sae.Run(setup, sae.PageRank(sae.PaperScale()), sae.Adaptive())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default: %8.1fs\n", def.Runtime.Seconds())
	fmt.Printf("dynamic: %8.1fs  (−%.1f%%, paper reports −54.1%%)\n",
		dyn.Runtime.Seconds(),
		100*(def.Runtime.Seconds()-dyn.Runtime.Seconds())/def.Runtime.Seconds())
	for _, st := range dyn.Stages {
		fmt.Printf("    stage %d %-12s %8.1fs  threads %s\n", st.ID, st.Name, st.Duration().Seconds(), st.ThreadsLabel())
	}
}
