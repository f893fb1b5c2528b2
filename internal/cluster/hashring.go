package cluster

import (
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over a set of members (shard
// addresses). Each member is projected onto the 64-bit FNV-1a hash circle
// at Replicas virtual-node points; a key routes to the member owning the
// first point clockwise of the key's hash. Virtual nodes smooth the load
// split (with ~100 vnodes per member the per-member share of the keyspace
// concentrates near 1/N), and consistent hashing bounds churn: removing
// one member from a ring of N moves only ~1/N of the keys, so a shard
// death reroutes only the streams that shard owned.
//
// A Ring is immutable after Build; membership changes build a new Ring
// and swap it in atomically (see Gateway), so routing never locks.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultReplicas is the virtual-node count per member used when a caller
// passes replicas <= 0.
const DefaultReplicas = 128

// BuildRing constructs a ring over members with the given virtual-node
// count per member (DefaultReplicas when <= 0). Duplicate members are
// collapsed. An empty member set yields a ring that routes everything to
// "".
func BuildRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{points: make([]ringPoint, 0, len(uniq)*replicas)}
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: fnv64a(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Route returns the member owning key, or "" for an empty ring. The same
// (members, replicas, key) always routes identically, whatever order the
// members were listed in: the gateway rebuilds its ring from map
// iteration order on every membership change, and a stream whose shard
// stayed healthy must not move.
func (r *Ring) Route(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64a(key)
	// First point with hash >= h, wrapping past the top of the circle.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// RouteKey builds the canonical (agent, app) stream routing key. Keying
// by agent+app (rather than by connection) makes placement stable across
// agent reconnects and spreads one agent's apps over the fleet.
func RouteKey(agent, app string) string { return agent + "|" + app }

// fnv64a is 64-bit FNV-1a over the key bytes with a murmur3-style
// finalizer — fast, allocation-free and stable across processes, so a
// restarted gateway places every stream where its predecessor did. The
// finalizer matters: raw FNV-1a barely avalanches its last bytes, so
// keys differing only in a trailing counter ("app-0", "app-1", …) land
// within ~255·prime of each other on the 2^64 circle — one vnode arc —
// and a whole family of sequentially named streams would pile onto one
// shard.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
