package silc_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"silc"
	"silc/internal/testkit"
)

// TestMetricNamesPinned scrapes three engines after a little traffic and
// checks each exposition's series shapes (family names and label keys,
// not values) against a list: WriteMetrics of an engine built in RAM, of a
// monolithic paged image and of a 4-cell paged image, both opened as
// OpenEngine serves them. A family or label that appears or disappears
// fails it, so every change to the metric surface is made on purpose and
// shows in this file.
func TestMetricNamesPinned(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 12, Cols: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		partitions int
		paged      bool
		want       []string
	}{
		{"ram", 1, false, engineMetricNames},
		{"paged", 1, true, slices.Concat(engineMetricNames, storeMetricNames)},
		{"paged-4cell", 4, true, slices.Concat(engineMetricNames, storeMetricNames)},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := silc.Build(net, silc.BuildOptions{Partitions: c.partitions})
			if err != nil {
				t.Fatal(err)
			}
			if c.paged {
				path := filepath.Join(t.TempDir(), "metrics.silcpg")
				if _, err := eng.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				if eng, err = silc.OpenEngine(path, nil, silc.BuildOptions{}); err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
			}
			objs, err := silc.NewObjectSet(eng.Network(), []silc.VertexID{3, 40, 77, 110})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := eng.Query(ctx, objs, 5, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Distance(ctx, 5, 120); err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := eng.WriteMetrics(&b); err != nil {
				t.Fatal(err)
			}
			got := testkit.MetricNames(b.String())
			if slices.Sort(c.want); !slices.Equal(got, c.want) {
				var list strings.Builder
				for _, n := range got {
					fmt.Fprintf(&list, "\t%q,\n", n)
				}
				t.Fatalf("the %s engine's metric series changed; if that is intended, pin the new list:\n%s", c.name, list.String())
			}
		})
	}
}

// engineMetricNames are the series of every engine.
var engineMetricNames = []string{
	"silc_diskio_pool_capacity_pages",
	"silc_diskio_pool_evictions_total",
	"silc_diskio_pool_hits_total",
	"silc_diskio_pool_misses_total",
	"silc_diskio_pool_resident_pages",
	"silc_engine_blocks_decoded_total",
	"silc_engine_inflight_queries",
	"silc_engine_page_hits_total",
	"silc_engine_page_misses_total",
	"silc_engine_page_reads_total",
	"silc_engine_pool_evictions_total",
	"silc_engine_queries_total{op}",
	"silc_engine_query_seconds_bucket{op,le}",
	"silc_engine_query_seconds_count{op}",
	"silc_engine_query_seconds_sum{op}",
	"silc_knn_filter_seconds_total",
	"silc_knn_heap_pushes_total",
	"silc_knn_lookups_total",
	"silc_knn_refine_seconds_total",
	"silc_knn_refinements_total",
	"silc_partition_cross_cell_refiners_total",
	"silc_partition_gateway_routes_total",
	"silc_partition_label_hits_total",
	"silc_partition_label_misses_total",
	"silc_partition_label_rows",
	"silc_partition_race_hinted_total",
	"silc_partition_race_used_total",
}

// storeMetricNames are the pool-wide read series of a paged engine,
// labelled by page source.
var storeMetricNames = []string{
	"silc_store_blocks_decoded_total{source}",
	"silc_store_page_reads_total{source}",
	"silc_store_read_seconds_total{source}",
}
