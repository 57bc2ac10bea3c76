package silc

// ShardedBuildOptions exists only because benchmark/ compiles against it; ROADMAP 1(f) deletes it.
type ShardedBuildOptions = BuildOptions

// BuildIndex exists only because benchmark/ compiles against it; ROADMAP 1(f) deletes it.
func BuildIndex(net *Network, opts BuildOptions) (*Engine, error) { return Build(net, opts) }

// OpenIndex exists only because benchmark/ compiles against it; ROADMAP 1(f) deletes it.
func OpenIndex(path string, opts BuildOptions) (*Engine, error) { return OpenEngine(path, nil, opts) }

// OpenShardedIndex exists only because benchmark/ compiles against it; ROADMAP 1(f) deletes it.
func OpenShardedIndex(p string, o BuildOptions) (*Engine, error) { return OpenEngine(p, nil, o) }

// Engine exists only because benchmark/ compiles against it; ROADMAP 1(f) deletes it.
func (e *Engine) Engine() *Engine { return e }
