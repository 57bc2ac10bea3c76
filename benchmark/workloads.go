package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// opKind names one request type. The order is the order metrics and the run
// record list kinds in.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opDistance
	opPath
	opBatch
	opMove
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"knn", "range", "distance", "path", "batch", "move", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isMutation() bool { return k >= opMove }

func (k opKind) is(other opKind) bool { return k == other }

// op is one abstract request, fully drawn from the seed when the sequence is
// generated. For queries a is the query (or source) vertex and b the
// destination. For mutations a selects the object (a mod the live population
// at send time, so the sequence does not depend on server-assigned ids) and b
// is the target vertex. A batch carries its query vertices.
type op struct {
	kind  opKind
	a, b  uint32
	batch []uint32
}

const (
	knnK      = 10
	batchSize = 64
)

// workload is one deployment plus the traffic it receives. Every size that
// decides how long a run takes is fixed here, not on the command line, so two
// runs of one commit do the same work.
type workload struct {
	name string
	why  string
	// mix is one period of the op sequence; genOps shuffles it once per seed
	// and repeats it, so every kind meets the same machine phases.
	mix            []opKind
	objectFraction float64
	live           bool // silcserve -live; reads carry live=1
	exact          bool // reads carry exact=1 and are compared bit for bit
	// pool is the buffer-pool size, as a fraction of the image's pages, that
	// the deployment's paged servers and their in-process twins run with.
	pool float64
	// warmupOps is the untimed prefix replayed against every fresh server; it
	// is part of setup_s. traceOps is the fixed count the traced run replays.
	warmupOps int
	traceOps  int
	// checkEvery is the stride of the answer check over the op sequence,
	// coprime with the mix's period so that every kind gets checked.
	checkEvery int
	// defectCap is the share of checked kNN results that may carry the
	// known rank defect (see rankError) before they all count as wrong
	// answers: 3.5 to 5 times the rate of the worst of ten seeds at the
	// commit the benchmark was written against (0.21%; 4.2% through the
	// router).
	defectCap float64
	// layers lists the modules this deployment runs queries through, beyond
	// the ones every deployment shares; the traced run benchmarks only those.
	layers map[string]bool
}

// share is one kind's count within a period of a mix.
type share struct {
	n    int
	kind opKind
}

func expand(shares ...share) []opKind {
	var out []opKind
	for _, s := range shares {
		for i := 0; i < s.n; i++ {
			out = append(out, s.kind)
		}
	}
	return out
}

// liveMix is ten cycles of (mutation, kNN, range, kNN, distance); the ten
// mutations are 6 moves, 2 inserts and 2 deletes, so the population is steady.
func liveMix() []opKind {
	muts := expand(share{6, opMove}, share{2, opInsert}, share{2, opDelete})
	var out []opKind
	for _, m := range muts {
		out = append(out, m, opKNN, opRange, opKNN, opDistance)
	}
	return out
}

var workloads = []*workload{
	{
		name: "warm_ram",
		why:  "in-RAM index, storage idle: HTTP/JSON handler cost dominates small ops, knn+core the 64-query batch",
		mix:  expand(share{8, opKNN}, share{4, opRange}, share{6, opDistance}, share{1, opPath}, share{1, opBatch}),

		objectFraction: 0.05,
		warmupOps:      60,
		traceOps:       2000,
		checkEvery:     7,
		defectCap:      0.01,
		layers:         map[string]bool{},
	},
	{
		name: "paged_smallpool",
		why:  "delta-compressed paged image behind a 5% pool: store page decode and diskio miss/evict dominate",
		mix:  expand(share{5, opKNN}, share{2, opRange}, share{3, opDistance}),

		objectFraction: 0.05,
		pool:           0.05, // the paper's buffer
		warmupOps:      800,
		traceOps:       2000,
		checkEvery:     7,
		defectCap:      0.01,
		layers:         map[string]bool{"store": true, "diskio": true},
	},
	{
		name: "cluster_router",
		why:  "router plus two cell-owning nodes over a 4-cell image: cluster RPC, JSON codec and gateway routing dominate",
		// Four kNN in ten: a window holds some 500 requests here, and
		// knn_p90_ms needs a hundred kNN samples even when the machine has
		// one of its slow minutes.
		mix: expand(share{4, opDistance}, share{4, opKNN}, share{2, opRange}),

		objectFraction: 0.025,
		exact:          true,
		pool:           0.05, // silcserve's default, on both nodes
		warmupOps:      60,
		traceOps:       300,
		checkEvery:     1,
		defectCap:      0.15,
		layers:         map[string]bool{"partition": true, "cluster": true, "diskio": true, "store": true},
	},
	{
		name: "live_churn",
		why:  "live object world at 30% density, one mutation per five requests: objstore republish and view rebuild tax the reads",
		mix:  liveMix(),

		objectFraction: 0.30,
		live:           true,
		warmupOps:      1000,
		traceOps:       2000,
		checkEvery:     7,
		defectCap:      0.01,
		layers:         map[string]bool{"objstore": true},
	},
}

// has reports whether the workload's traffic includes the kind.
func (w *workload) has(kind opKind) bool {
	for _, k := range w.mix {
		if k == kind {
			return true
		}
	}
	return false
}

// checks reports whether the reply to op i, of the given kind, is held back
// and checked after the window. A live workload checks every read that
// depends on the world's version, and the rest at the stride.
func (w *workload) checks(i int, kind opKind) bool {
	if w.live && (kind == opKNN || kind == opRange) {
		return true
	}
	return i%w.checkEvery == 0
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seqLen is how many ops genOps draws. A window that outlasts it wraps
// around; at the rates this sandbox reaches it never does.
const seqLen = 1 << 17

func seedFor(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64()>>1)
}

// strata is how many equal runs of consecutive vertex ids the query vertices
// of one kind cycle through. netgen numbers a road map row by row, so a run
// is a short stretch of one row, and every 256 queries of a kind visit every
// part of the map once, in a seeded order, at a seeded spot. What a query
// costs depends on where it starts (object density, distance to a cell
// boundary); cluster_router fits only some 250 kNN queries into a window, and
// drawn freely their median moves by several percent with the draw alone.
const strata = 256

// genOps draws the op sequence of one workload: the mix, shuffled once (a
// live mix keeps its cycle of five and only shuffles which mutation leads
// each cycle), repeated to n ops. Query and source vertices are stratified
// over [0, vertices) (see strata), everything else is uniform.
func genOps(w *workload, seed int64, n, vertices int) []op {
	rng := rand.New(rand.NewSource(seedFor(w.name, seed)))
	mix := append([]opKind(nil), w.mix...)
	if w.live {
		rng.Shuffle(len(mix)/5, func(i, j int) { mix[5*i], mix[5*j] = mix[5*j], mix[5*i] })
	} else {
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	}
	var order [numKinds][]int // per kind, the order it visits the strata in
	var drawn [numKinds]int
	for k := range order {
		order[k] = rng.Perm(min(strata, vertices))
	}
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: mix[i%len(mix)], b: uint32(rng.Intn(vertices))}
		visit := order[o.kind]
		st := visit[drawn[o.kind]%len(visit)]
		drawn[o.kind]++
		lo, hi := st*vertices/len(visit), (st+1)*vertices/len(visit)
		o.a = uint32(lo + rng.Intn(hi-lo))
		switch {
		case o.kind == opBatch:
			o.batch = make([]uint32, batchSize)
			for j := range o.batch {
				o.batch[j] = uint32(rng.Intn(vertices))
			}
		case o.kind.isMutation():
			o.a = rng.Uint32() // an object selector, not a vertex
		}
		ops[i] = o
	}
	return ops
}

// encodeOps is the canonical byte form of a sequence: what "the same seed
// gives the same inputs" means, and what the generator test compares.
func encodeOps(ops []op) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, byte(o.kind))
		out = binary.LittleEndian.AppendUint32(out, o.a)
		out = binary.LittleEndian.AppendUint32(out, o.b)
		out = binary.AppendUvarint(out, uint64(len(o.batch)))
		for _, q := range o.batch {
			out = binary.LittleEndian.AppendUint32(out, q)
		}
	}
	return out
}

// genObjects places round(fraction·vertices) objects on distinct vertices,
// one in each of as many equal runs of consecutive vertex ids, at a seeded
// spot: every part of the map gets its share of objects whatever the seed.
// Drawn freely, the objects of one seed bunch where those of another leave
// a gap, and through the router, where a search that reaches across a cell
// boundary costs many RPCs, kNN and range medians differed by a quarter
// between seeds.
func genObjects(seed int64, fraction float64, vertices int) []int32 {
	rng := rand.New(rand.NewSource(seedFor("objects", seed)))
	// At least four times k, on the smoke map too: with hardly more than k
	// objects to choose from, kNN is no search.
	m := max(int(fraction*float64(vertices)+0.5), 4*knnK)
	out := make([]int32, m)
	for i := range out {
		lo, hi := i*vertices/m, (i+1)*vertices/m
		out[i] = int32(lo + rng.Intn(hi-lo))
	}
	rng.Shuffle(m, func(i, j int) { out[i], out[j] = out[j], out[i] }) // ids say nothing about places
	return out
}

// liveTable is the benchmark's own copy of the live object world, advanced
// by the acknowledged mutations. ids is the population in a fixed order (a
// mutation's selector indexes it); vertexOf maps a server-assigned id to its
// vertex, -1 once deleted. Server ids are sequential, so vertexOf is dense.
type liveTable struct {
	ids      []int32
	vertexOf []int32
	version  uint64
}

func newLiveTable(objects []int32) *liveTable {
	t := &liveTable{version: uint64(len(objects))}
	for i, v := range objects {
		t.ids = append(t.ids, int32(i))
		t.vertexOf = append(t.vertexOf, v)
	}
	return t
}

func (t *liveTable) clone() *liveTable {
	return &liveTable{
		ids:      append([]int32(nil), t.ids...),
		vertexOf: append([]int32(nil), t.vertexOf...),
		version:  t.version,
	}
}

// target returns the object id a move or delete addresses.
func (t *liveTable) target(o op) int32 { return t.ids[int(o.a)%len(t.ids)] }

// apply advances the table by one acknowledged mutation; id is the target
// for moves and deletes and the server-assigned id for inserts.
func (t *liveTable) apply(o op, id int32) {
	t.version++
	switch o.kind {
	case opMove:
		t.vertexOf[id] = int32(o.b)
	case opInsert:
		for int(id) >= len(t.vertexOf) {
			t.vertexOf = append(t.vertexOf, -1)
		}
		t.vertexOf[id] = int32(o.b)
		t.ids = append(t.ids, id)
	case opDelete:
		slot := int(o.a) % len(t.ids)
		t.ids[slot] = t.ids[len(t.ids)-1]
		t.ids = t.ids[:len(t.ids)-1]
		t.vertexOf[id] = -1
	}
}
