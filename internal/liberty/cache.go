package liberty

import (
	"sync"

	"tmi3d/internal/tech"
)

// The characterized libraries are deterministic for a (node, mode) pair, so
// they are built once per process and shared.
//
// Each (node, mode) key owns a sync.OnceValues function that runs the build.
// The mutex only guards the map: concurrent callers of *different* keys
// characterize in parallel, and concurrent callers of the *same* key block on
// that key's function rather than on a global lock — a flow characterizing
// the 2D library never stalls one characterizing T-MI.
var (
	cacheMu sync.Mutex
	cache   = map[[2]int]func() (*Library, error){}
)

// Default returns the shared characterized library for a node and design
// mode. ModeTMIM designs use the T-MI cell library (the modified metal stack
// only changes routing, not the cells). Callers must treat the returned
// library as immutable — derive variants with ScalePinCap, never mutate.
func Default(node tech.Node, mode tech.Mode) (*Library, error) {
	if mode == tech.ModeTMIM {
		mode = tech.ModeTMI
	}
	key := [2]int{int(node), int(mode)}
	cacheMu.Lock()
	get, ok := cache[key]
	if !ok {
		get = sync.OnceValues(func() (*Library, error) { return build(node, mode) })
		cache[key] = get
	}
	cacheMu.Unlock()
	return get()
}

// build loads one library. The 45nm libraries are the embedded artifacts;
// the 7nm library derives from the 45nm one, fetched through Default so the
// 45nm build is shared and deduplicated like any other key.
func build(node tech.Node, mode tech.Mode) (*Library, error) {
	if node != tech.N45 {
		lib45, err := Default(tech.N45, mode)
		if err != nil {
			return nil, err
		}
		return Derive7(lib45, PaperScale7), nil
	}
	return loadEmbedded(mode)
}

// MustDefault is Default for contexts where characterization cannot fail
// (it is deterministic; failure indicates a programming error).
func MustDefault(node tech.Node, mode tech.Mode) *Library {
	lib, err := Default(node, mode)
	if err != nil {
		panic(err)
	}
	return lib
}
