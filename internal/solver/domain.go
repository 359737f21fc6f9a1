package solver

import (
	"fmt"
	"sort"
	"strings"
)

// Domain is a finite set of candidate integer values for a decision
// variable, stored sorted ascending without duplicates. Domains are small in
// Cologne workloads (binary assignment indicators, channel numbers, bounded
// migration quantities), so an explicit sorted slice is both simple and
// cache-friendly.
type Domain struct {
	vals []int64
}

// NewDomain builds a domain from an arbitrary value list; duplicates are
// removed and values sorted.
func NewDomain(vals ...int64) Domain {
	cp := make([]int64, len(vals))
	copy(cp, vals)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return Domain{vals: out}
}

// NewRangeDomain builds the contiguous domain {lo, lo+1, ..., hi}.
// It panics if hi < lo.
func NewRangeDomain(lo, hi int64) Domain {
	if hi < lo {
		panic(fmt.Sprintf("solver: invalid domain range [%d,%d]", lo, hi))
	}
	vals := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	return Domain{vals: vals}
}

// BinaryDomain is the {0,1} domain used by assignment indicator variables.
func BinaryDomain() Domain { return Domain{vals: []int64{0, 1}} }

// Size returns the number of candidate values.
func (d Domain) Size() int { return len(d.vals) }

// Empty reports whether the domain has no values.
func (d Domain) Empty() bool { return len(d.vals) == 0 }

// Min returns the smallest value; it panics on an empty domain.
func (d Domain) Min() int64 { return d.vals[0] }

// Max returns the largest value; it panics on an empty domain.
func (d Domain) Max() int64 { return d.vals[len(d.vals)-1] }

// Values returns the candidate values in ascending order. The returned slice
// must not be mutated.
func (d Domain) Values() []int64 { return d.vals }

// singletonView returns the domain {v} as a view into d's backing array —
// no allocation. Domains are immutable after creation, so the alias is safe.
// Falls back to a fresh domain when v is not in d.
func (d Domain) singletonView(v int64) Domain {
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= v })
	if i < len(d.vals) && d.vals[i] == v {
		return Domain{vals: d.vals[i : i+1]}
	}
	return NewDomain(v)
}

// within returns the values of d in [lo, hi] as a view into d's backing
// array — no allocation: bounds narrowing keeps a contiguous run.
func (d Domain) within(lo, hi int64) Domain {
	i, j := 0, len(d.vals)
	for i < j && d.vals[i] < lo {
		i++
	}
	for j > i && d.vals[j-1] > hi {
		j--
	}
	return Domain{vals: d.vals[i:j]}
}

// domainFromSorted wraps an ascending, duplicate-free slice the caller owns,
// skipping NewDomain's copy and sort. Propagators build their kept-value
// lists in ascending order, so this is their narrowing constructor.
func domainFromSorted(vals []int64) Domain { return Domain{vals: vals} }

// Contains reports whether v is a candidate value.
func (d Domain) Contains(v int64) bool {
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= v })
	return i < len(d.vals) && d.vals[i] == v
}

// Remove returns a copy of the domain without v. If v is absent the original
// domain is returned unchanged.
func (d Domain) Remove(v int64) Domain {
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= v })
	if i >= len(d.vals) || d.vals[i] != v {
		return d
	}
	out := make([]int64, 0, len(d.vals)-1)
	out = append(out, d.vals[:i]...)
	out = append(out, d.vals[i+1:]...)
	return Domain{vals: out}
}

// Intersect returns the set intersection of two domains.
func (d Domain) Intersect(o Domain) Domain {
	out := make([]int64, 0, min(len(d.vals), len(o.vals)))
	i, j := 0, 0
	for i < len(d.vals) && j < len(o.vals) {
		switch {
		case d.vals[i] == o.vals[j]:
			out = append(out, d.vals[i])
			i++
			j++
		case d.vals[i] < o.vals[j]:
			i++
		default:
			j++
		}
	}
	return Domain{vals: out}
}

// String renders the domain compactly, collapsing contiguous runs.
func (d Domain) String() string {
	if len(d.vals) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	i := 0
	for i < len(d.vals) {
		j := i
		for j+1 < len(d.vals) && d.vals[j+1] == d.vals[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if j > i+1 {
			fmt.Fprintf(&b, "%d..%d", d.vals[i], d.vals[j])
		} else if j == i+1 {
			fmt.Fprintf(&b, "%d,%d", d.vals[i], d.vals[j])
		} else {
			fmt.Fprintf(&b, "%d", d.vals[i])
		}
		i = j + 1
	}
	b.WriteByte('}')
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
