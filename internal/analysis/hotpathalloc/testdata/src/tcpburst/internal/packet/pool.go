// Fixture for hotpathalloc, impersonating the packet package, whose
// explicit hot-path roots are Pool.Get and Pool.Put. Put is missing here,
// as after a rename that left the root list behind: the stale root is
// reported on the package clause.
package packet // want `hot-path root Pool\.Put matches no function in tcpburst/internal/packet`

type Pool struct{ free []int }

// Get resolves as a root and allocates nothing.
func (p *Pool) Get() int {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return 0
}

// Release is what Put became; no root names it.
func (p *Pool) Release(v int) { p.free = append(p.free, v) }
