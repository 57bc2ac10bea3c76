#!/usr/bin/env bash
# Multi-process cluster smoke test: build one sharded paged index, serve it
# as a real 2-node + router cluster (three silcserve processes), and check
# that the router's kNN/range answers are identical to a standalone server
# over the same file — stats stripped, distances compared verbatim, so any
# routing or transport bug that changes a single bit fails the diff. Also
# scrapes /metrics on all three processes, asserts the cluster metric
# families are being exported, and holds the router to its RPC budget: the
# silc_cluster_rpcs_total delta over a run of warm k=10 kNN queries, divided
# by the queries sent, must stay under KNN_RPC_BUDGET. Checks the wire
# version gate on a real node: the JSON protocol's POST /rpc/v1/race is a
# 404, and a JSON body on /rpc/v2/race, which takes binary frames, a 400.
# Prints the frame bytes per RPC from silc_cluster_rpc_bytes_total.
#
# Usage: scripts/cluster_smoke.sh [workdir]
set -euo pipefail

DIR=${1:-$(mktemp -d /tmp/silc-cluster-smoke.XXXXXX)}
mkdir -p "$DIR"
ROUTER=18090
NODE_A=18091
NODE_B=18092
MONO=18093
KNN_RPC_BUDGET=7
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_ready() { # url
  for _ in $(seq 1 100); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "timed out waiting for $1" >&2
  return 1
}

echo "== build (workdir $DIR)"
go build -o "$DIR/netgen" ./cmd/netgen
go build -o "$DIR/silcbuild" ./cmd/silcbuild
go build -o "$DIR/silcserve" ./cmd/silcserve

"$DIR/netgen" -kind road -rows 40 -cols 40 -seed 11 -o "$DIR/net.txt"
"$DIR/silcbuild" -net "$DIR/net.txt" -partitions 4 -format=paged -o "$DIR/cluster.silcspg"

cat > "$DIR/manifest.json" <<EOF
{
  "index": "$DIR/cluster.silcspg",
  "nodes": [
    {"name": "node-a", "addr": "http://localhost:$NODE_A", "cells": [0, 1]},
    {"name": "node-b", "addr": "http://localhost:$NODE_B", "cells": [2, 3]}
  ]
}
EOF

echo "== launch: 2 cell nodes, 1 router, 1 standalone reference"
"$DIR/silcserve" -cluster node -manifest "$DIR/manifest.json" -node-name node-a \
  -addr "localhost:$NODE_A" &
PIDS+=($!)
"$DIR/silcserve" -cluster node -manifest "$DIR/manifest.json" -node-name node-b \
  -addr "localhost:$NODE_B" &
PIDS+=($!)
wait_ready "localhost:$NODE_A/readyz"
wait_ready "localhost:$NODE_B/readyz"

# The router and the reference share -objects defaults (same network, same
# object seed), so their object sets are identical by construction.
"$DIR/silcserve" -cluster router -manifest "$DIR/manifest.json" \
  -addr "localhost:$ROUTER" &
PIDS+=($!)
"$DIR/silcserve" -index "$DIR/cluster.silcspg" -addr "localhost:$MONO" &
PIDS+=($!)
wait_ready "localhost:$ROUTER/readyz"
wait_ready "localhost:$MONO/readyz"

echo "== diff router vs standalone (kNN + range sample)"
# del(.stats, ..): per-query stats legitimately differ (RPC-side page
# traffic lands on the nodes); everything else — ids, vertices, every
# distance digit — must match exactly.
norm='del(.stats) | (.neighbors[]? | .dist) |= tostring | del(.neighbors[]?.stats)'
# The 40x40 road network prunes to ~1477 vertices; stay inside it.
for q in 0 97 555 1203 1476; do
  for url in "knn?q=$q&k=5&exact=1" "range?q=$q&radius=0.25&exact=1"; do
    curl -sf "localhost:$ROUTER/$url" | jq -S "$norm" > "$DIR/router.json"
    curl -sf "localhost:$MONO/$url"   | jq -S "$norm" > "$DIR/mono.json"
    if ! diff -u "$DIR/mono.json" "$DIR/router.json"; then
      echo "DIVERGED on /$url" >&2
      exit 1
    fi
  done
done
echo "   answers identical"

echo "== RPC budget: warm k=10 kNN through the router"
rpc_total() { # sum of silc_cluster_rpcs_total over the endpoints
  curl -sf "localhost:$ROUTER/metrics" | awk '/^silc_cluster_rpcs_total/ {s += $2} END {print s+0}'
}
BUDGET_QS="3 211 419 640 888 1010 1234 1400"
for q in $BUDGET_QS; do # first touch fills the router's label table
  curl -sf "localhost:$ROUTER/knn?q=$q&k=10&exact=1" >/dev/null
done
before=$(rpc_total)
sent=0
for q in $BUDGET_QS; do
  curl -sf "localhost:$ROUTER/knn?q=$q&k=10&exact=1" >/dev/null
  sent=$((sent + 1))
done
after=$(rpc_total)
per_knn=$(awk -v a="$after" -v b="$before" -v n="$sent" 'BEGIN {printf "%.1f", (a - b) / n}')
echo "   $per_knn RPCs per kNN (budget $KNN_RPC_BUDGET)"
if ! awk -v x="$per_knn" -v max="$KNN_RPC_BUDGET" 'BEGIN {exit !(x > 0 && x <= max)}'; then
  echo "router spent $per_knn RPCs per kNN, budget $KNN_RPC_BUDGET" >&2
  exit 1
fi

echo "== wire version gate on node-a"
v1=$(curl -s -o /dev/null -w '%{http_code}' -X POST "localhost:$NODE_A/rpc/v1/race" \
  -d '{"cell":0,"dsts":[1],"ns":[1],"offs":[0],"us":[0]}')
[ "$v1" = 404 ] || { echo "POST /rpc/v1/race answered $v1, want 404" >&2; exit 1; }
json=$(curl -s -o /dev/null -w '%{http_code}' -X POST "localhost:$NODE_A/rpc/v2/race" \
  -d '{"cell":0,"dsts":[1],"ns":[1],"offs":[0],"us":[0]}')
[ "$json" = 400 ] || { echo "a JSON body on /rpc/v2/race answered $json, want 400" >&2; exit 1; }
echo "   /rpc/v1/race 404, JSON on /rpc/v2/race 400"

echo "== scrape /metrics on all three processes"
curl -sf "localhost:$NODE_A/metrics" > "$DIR/node-a.metrics"
curl -sf "localhost:$NODE_B/metrics" > "$DIR/node-b.metrics"
curl -sf "localhost:$ROUTER/metrics" > "$DIR/router.metrics"
for f in node-a node-b; do
  for fam in silcnode_rpcs_total silcnode_cell_rpcs_total silcnode_refinements_total silc_store_page_reads_total; do
    grep -q "^$fam" "$DIR/$f.metrics" || { echo "missing $fam on $f" >&2; exit 1; }
  done
done
for fam in silc_cluster_rpcs_total silc_cluster_rpc_bytes_total silc_cluster_cell_rpcs_total silcserve_requests_total \
           silc_partition_label_hits_total silc_partition_label_misses_total silc_partition_label_rows \
           silc_partition_race_hinted_total silc_partition_race_used_total; do
  grep -q "^$fam" "$DIR/router.metrics" || { echo "missing $fam on router" >&2; exit 1; }
done
echo "   metric families present"

echo "== frame bytes per RPC over the whole run (router)"
awk '
  /^silc_cluster_rpcs_total\{/ { match($0, /endpoint="[^"]*"/); calls[substr($0, RSTART, RLENGTH)] = $2 }
  /^silc_cluster_rpc_bytes_total\{/ {
    match($0, /endpoint="[^"]*"/); ep = substr($0, RSTART, RLENGTH)
    if ($0 ~ /dir="req"/) req[ep] = $2; else resp[ep] = $2
  }
  END { for (ep in calls) if (calls[ep] > 0)
          printf "   %s: %d calls, %.1f request bytes and %.1f reply bytes per call\n", ep, calls[ep], req[ep] / calls[ep], resp[ep] / calls[ep] }
' "$DIR/router.metrics" | sort

echo "cluster smoke OK"
