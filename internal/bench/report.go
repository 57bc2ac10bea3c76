package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// RenderStorageGrowth prints the F1 table (Morton blocks vs network size).
func RenderStorageGrowth(w io.Writer, rows []StorageRow, slope float64) {
	fmt.Fprintln(w, "F1 — Shortest-path quadtree storage growth (paper p.16, slope ~1.5)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "lattice\tvertices\tedges\tMorton blocks\tblocks/vertex\tbytes\tbuild")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%d\t%d\t%d\t%.1f\t%s\t%s\n",
			r.Lattice, r.Lattice, r.Vertices, r.Edges, r.Blocks, r.PerVertex,
			byteCount(r.Bytes), r.BuildTime.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintf(w, "fitted log-log slope: %.3f (paper: 1.5)\n\n", slope)
}

// RenderVisitSummary prints the F2 comparison (Dijkstra vs SILC retrieval).
func RenderVisitSummary(w io.Writer, sum VisitSummary, sample []VisitRow) {
	fmt.Fprintln(w, "F2 — Vertices visited for point-to-point shortest paths (paper pp.3/7)")
	fmt.Fprintf(w, "network: %d vertices, %d queries\n", sum.NetworkVertices, sum.Queries)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tmean vertices visited\tshare of network")
	fmt.Fprintf(tw, "Dijkstra\t%.0f\t%.0f%%\n", sum.MeanDijkstra, 100*sum.DijkstraFraction)
	fmt.Fprintf(tw, "A*\t%.0f\t%.0f%%\n", sum.MeanAStar, 100*sum.MeanAStar/float64(sum.NetworkVertices))
	fmt.Fprintf(tw, "SILC\t%.0f\t%.1f%%\n", sum.MeanSILC, 100*sum.MeanSILC/float64(sum.NetworkVertices))
	tw.Flush()
	fmt.Fprintf(w, "mean path length: %.0f hops (SILC visits exactly the path)\n", sum.MeanPathHops)
	if len(sample) > 0 {
		r := sample[0]
		fmt.Fprintf(w, "example query: %d-hop path; Dijkstra settled %d of %d vertices, SILC %d\n",
			r.PathHops, r.DijkstraSettled, sum.NetworkVertices, r.SILCSteps)
	}
	fmt.Fprintln(w)
}

// RenderModels prints the T1 storage-model trade-off table (paper p.11).
func RenderModels(w io.Writer, rows []ModelRow) {
	fmt.Fprintln(w, "T1 — Shortest-path storage models (paper p.11)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tstorage\tbuild\tdistance query\tpath query\tcomplexity")
	for _, r := range rows {
		path := "-"
		if r.PathQuery > 0 {
			path = fmtDur(r.PathQuery)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Model, byteCount(r.Bytes), r.BuildTime.Round(time.Millisecond),
			fmtDur(r.DistQuery), path, r.Note)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// metricFn extracts one formatted cell per algorithm aggregate.
type metricFn func(point SweepPoint, name string) string

// renderSweep prints one metric across sweep points (rows) and algorithms
// (columns). A point with fewer objects than k has no k-th neighbour, so
// every ratio to it means nothing: its cells read n/a, and a note under
// the table names each such point.
func renderSweep(w io.Writer, title string, points []SweepPoint, names []string, metric metricFn) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "point")
	for _, n := range names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, pt := range points {
		fmt.Fprint(tw, pt.Spec.Label)
		for _, n := range names {
			cell := "n/a"
			if !pt.short() {
				cell = metric(pt, n)
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	noteShort(w, points)
	fmt.Fprintln(w)
}

// short reports whether the point has fewer objects than k.
func (pt SweepPoint) short() bool { return pt.Objects < pt.Spec.K }

// noteShort names, in one line under a table, every point with fewer
// objects than k.
func noteShort(w io.Writer, points []SweepPoint) {
	var dropped []string
	for _, pt := range points {
		if pt.short() {
			dropped = append(dropped, fmt.Sprintf("%s (%d objects, k=%d)", pt.Spec.Label, pt.Objects, pt.Spec.K))
		}
	}
	if len(dropped) > 0 {
		fmt.Fprintf(w, "n/a: fewer objects than k at %s\n", strings.Join(dropped, ", "))
	}
}

func namesOf(points []SweepPoint, only []string) []string {
	if len(points) == 0 {
		return nil
	}
	all := SortedAlgorithmNames(points[0].Per)
	if only == nil {
		return all
	}
	var out []string
	for _, n := range all {
		for _, o := range only {
			if n == o {
				out = append(out, n)
			}
		}
	}
	return out
}

// paperMissCost prices one pool miss at the buffered 4KiB read the
// paper's absolute timings imply (its 1GB evaluation machine held the
// working set in the OS page cache). It exists only to print a column whose
// magnitudes can be held against the paper's figures; the measured columns
// beside it are what this machine did.
const paperMissCost = 200 * time.Microsecond

// paperScaleTime is the paper-magnitude execution time of one query: its
// measured CPU time plus its real pool misses at paperMissCost.
func paperScaleTime(a *Agg) time.Duration {
	return a.CPUTime + time.Duration(a.IOMisses*float64(paperMissCost))
}

// baseline reports whether the named algorithm is one of the
// graph-expansion comparators, INE and IER. They expand the resident
// network and charge no page, so their I/O is not measured (DESIGN.md §5).
func baseline(name string) bool { return name == "INE" || name == "IER" }

// renderCost prints one row per (sweep point, algorithm) with the query's
// CPU time and its I/O in separate columns: pool misses, real page reads
// and measured read time per query, then the paper-scale total. withPQ adds
// the paper's KNN-PQ component as a count: manipulations of L per query.
// A baseline's I/O columns, and every cell of a point with fewer objects
// than k, read n/a; notes under the table say why.
func renderCost(w io.Writer, title string, points []SweepPoint, names []string, withPQ bool) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "point\talgorithm\tCPU\tpage misses\tpage reads\tread time\tCPU + misses x 200us")
	if withPQ {
		fmt.Fprint(tw, "\tKNN-PQ (L ops)")
	}
	fmt.Fprintln(tw)
	for _, pt := range points {
		for _, n := range names {
			a := pt.Per[n]
			cells := []string{fmtDur(a.CPUTime), "n/a", "n/a", "n/a", "n/a"}
			if !baseline(n) {
				cells = append(cells[:1], fmt.Sprintf("%.1f", a.IOMisses), fmt.Sprintf("%.1f", a.IOReads),
					fmtDur(a.ReadTime), fmtDur(paperScaleTime(a)))
			}
			if withPQ {
				cells = append(cells, fmt.Sprintf("%.1f", a.LOps))
			}
			if pt.short() {
				for i := range cells {
					cells[i] = "n/a"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", pt.Spec.Label, n, strings.Join(cells, "\t"))
		}
	}
	tw.Flush()
	noteShort(w, points)
	if baselines := slices.DeleteFunc(slices.Clone(names), func(n string) bool { return !baseline(n) }); len(baselines) > 0 {
		fmt.Fprintf(w, "%s: I/O not measured; they expand the resident network and read no page\n", strings.Join(baselines, ", "))
	}
	fmt.Fprintln(w)
}

// RenderF3 prints the mean per-query execution cost of every algorithm, CPU
// and I/O in separate columns — the paper's fig. p.33.
func RenderF3(w io.Writer, title string, points []SweepPoint) {
	renderCost(w, "F3 — Execution cost per query, "+title+" (paper p.33)", points, namesOf(points, nil), false)
}

// RenderF4 prints the maximum priority-queue size of the SILC variants as a
// percentage of INN's — the paper's fig. p.34.
func RenderF4(w io.Writer, title string, points []SweepPoint) {
	renderSweep(w, "F4 — Max queue size as % of INN, "+title+" (paper p.34)", points,
		namesOf(points, []string{"KNN-I", "KNN", "KNN-M"}),
		func(pt SweepPoint, name string) string {
			inn := pt.Per["INN"]
			if inn == nil || inn.MaxQueue == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*pt.Per[name].MaxQueue/inn.MaxQueue)
		})
}

// RenderF5 prints refinement operations as a percentage of INN's — the
// paper's fig. p.35.
func RenderF5(w io.Writer, title string, points []SweepPoint) {
	renderSweep(w, "F5 — Refinements as % of INN, "+title+" (paper p.35)", points,
		namesOf(points, []string{"KNN-I", "KNN", "KNN-M"}),
		func(pt SweepPoint, name string) string {
			inn := pt.Per["INN"]
			if inn == nil || inn.Refinements == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*pt.Per[name].Refinements/inn.Refinements)
		})
}

// RenderF6 prints the share of kNN-M's results accepted directly against
// KMINDIST — the paper's fig. p.36.
func RenderF6(w io.Writer, title string, points []SweepPoint) {
	renderSweep(w, "F6 — kNN-M neighbors accepted via KMINDIST, "+title+" (paper p.36)", points,
		namesOf(points, []string{"KNN-M"}),
		func(pt SweepPoint, name string) string {
			a := pt.Per[name]
			if a == nil || pt.Spec.K == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*a.KMinAccepts/float64(pt.Spec.K))
		})
}

// RenderF7 prints the estimate-quality ratios D0k/Dk and KMINDIST/Dk from
// the kNN runs — the paper's fig. p.37 (~120% and ~90%).
func RenderF7(w io.Writer, title string, points []SweepPoint) {
	renderSweep(w, "F7 — Quality of estimates vs true Dk, "+title+" (paper p.37)", points,
		[]string{"D0k/Dk", "KMINDIST/Dk"},
		func(pt SweepPoint, name string) string {
			a := pt.Per["KNN"]
			if a == nil {
				return "-"
			}
			if name == "D0k/Dk" {
				return fmt.Sprintf("%.0f%%", 100*a.D0kOverDk)
			}
			return fmt.Sprintf("%.0f%%", 100*a.KMinDistOverDk)
		})
}

// RenderF8 prints the cost decomposition of the SILC variants: CPU, I/O,
// and the L/Dk manipulation component (KNN-PQ, as L operations per query) —
// the paper's fig. p.38.
func RenderF8(w io.Writer, title string, points []SweepPoint) {
	renderCost(w, "F8 — Cost decomposition of the SILC variants, "+title+" (paper p.38)", points,
		namesOf(points, []string{"INN", "KNN-I", "KNN", "KNN-M"}), true)
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fus", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func byteCount(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
