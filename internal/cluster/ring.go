package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash placement ring: members project `replicas`
// virtual points onto a 64-bit circle and a key is owned by the first point
// clockwise of its hash. Adding or removing a member therefore moves only
// the keys in the arcs it gains or loses — the property that keeps failover
// from reshuffling the whole facility. Hashing is FNV-64a, deterministic
// across processes and runs, so every node that sees the same membership
// computes the same placement. Ring is not goroutine-safe; the Coordinator
// guards it with its own mutex.
type Ring struct {
	replicas int
	members  map[string]bool
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultReplicas is the virtual-point count per member; 128 keeps the
// max/min load ratio under ~1.25 at realistic member counts.
const DefaultReplicas = 128

// NewRing returns an empty ring; replicas <= 0 selects DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// ringHash hashes a key or virtual point onto the circle: FNV-64a for the
// byte mixing, then a 64-bit avalanche finalizer (the murmur3 fmix64
// constants). Raw FNV clusters badly on short keys differing in one
// character — loop names like "g0".."g8" all land in one arc — because its
// multiply only propagates entropy upward; the finalizer spreads every input
// bit across the word.
func ringHash(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its points (idempotent).
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Owner returns the member owning key, or "" on an empty ring. Loop groups
// hash by group name; a worker's telemetry series follow its loops (each
// worker stores what its slice of the facility emits).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the largest hash
	}
	return r.points[i].member
}
