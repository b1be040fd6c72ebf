package dfg

// internTable is the translator's hash-consing table: an open-addressing
// hash set of node IDs with linear probing. An entry's key is its node — the
// op and arguments of an interior node, the ConstBits of a constant — so a
// slot holds only the key's hash, which screens out almost every mismatch
// without touching the node table, and the node's ID. It grows by doubling,
// so filling it allocates a few times per graph, not per node.
type internTable struct {
	slots []internSlot // a power of two long
	n     int
}

type internSlot struct {
	hash uint32
	id1  int32 // node ID + 1; 0 marks an empty slot
}

const internMinSlots = 1 << 10

// find returns the ID of the node with hash h for which same holds, or -1
// and the empty slot where such a node belongs.
func (t *internTable) find(h uint32, same func(id int32) bool) (id int32, slot int) {
	if t.slots == nil {
		t.slots = make([]internSlot, internMinSlots)
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id1 == 0 {
			return -1, i
		}
		if s.hash == h && same(s.id1-1) {
			return s.id1 - 1, i
		}
	}
}

// insert puts id, of hash h, in the empty slot find returned.
func (t *internTable) insert(slot int, h uint32, id int32) {
	t.slots[slot] = internSlot{hash: h, id1: id + 1}
	t.n++
	if 4*t.n > 3*len(t.slots) {
		t.grow()
	}
}

// grow doubles the table, re-placing every entry by its stored hash.
func (t *internTable) grow() {
	old := t.slots
	t.slots = make([]internSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		i := int(s.hash) & mask
		for t.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// mix64 is the SplitMix64 finalizer: every input bit affects every output
// bit, so the low bits the table indexes by are well spread.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
