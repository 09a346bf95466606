// Package shard horizontally partitions the admission problem's
// commodities across solver shards that take turns. Per-commodity
// routing variables couple solely through shared capacity rows — the
// node-usage sums inside the barrier penalties ε·D_i — so each shard
// can run the paper's gradient algorithm on its own commodity subset
// against everyone else's usage held fixed, which its engine folds into
// its barrier shadow prices ε·D'_i. A coordinator advances the shards
// one at a time in fixed order and, after each turn, merges per-shard
// usage into global congestion state and installs every shard's exact
// external usage. That is block coordinate descent on the one convex
// objective of the undecomposed problem, so the sharded solve heads for
// the unsharded optimum; it needs no damping.
//
// The shard boundary is two flat vectors over the shared node prefix:
// a shard's own usage up, the usage of everyone else down. Nothing else
// crosses it.
package shard

// Place returns the shard owning a commodity under jump consistent
// hashing (Lamping & Veach) of the FNV-1a hash of the name, seeded by
// salt. Placement depends only on (name, salt, shards): commodity
// arrivals and departures never move other commodities, and a recorded
// (shards, salt) pair replays to the identical partition.
func Place(name string, salt uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return jump(hashName(name, salt), shards)
}

// hashName is FNV-1a over the 8 salt bytes (little-endian) followed by
// the name bytes.
func hashName(name string, salt uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (salt >> (8 * i)) & 0xff
		h *= prime
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// jump is the jump-consistent-hash bucket function: O(ln buckets),
// no state, minimal movement when the bucket count changes.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
