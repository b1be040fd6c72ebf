package runtime

import "fmt"

// Role is a node's function in the scale-out system.
type Role int

// Roles. The master Sigma is also its group's Sigma; every Sigma computes
// its own partial updates too ("the Sigma nodes compute their own partial
// gradient updates, as they are also equipped with accelerators").
const (
	RoleDelta Role = iota
	RoleGroupSigma
	RoleMasterSigma
)

var roleNames = [...]string{"delta", "group-sigma", "master-sigma"}

// String names the role.
func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Topology is the System Director's role and group assignment: the output
// of the topmost component of the system layer, derived from the system
// specification (number of nodes, number of groups).
type Topology struct {
	Nodes  int
	Groups int
	// RoleOf[node] is the node's role.
	RoleOf []Role
	// GroupOf[node] is the node's group.
	GroupOf []int
	// SigmaOf[group] is the group's Sigma node.
	SigmaOf []int
	// Members[group] lists the group's nodes (its Sigma first).
	Members [][]int
}

// Assign derives the topology: node 0 is the master Sigma (and group 0's
// Sigma); nodes 1..groups-1 are the remaining group Sigmas; the rest are
// Delta nodes distributed round-robin over groups.
func Assign(nodes, groups int) (Topology, error) {
	if nodes < 1 {
		return Topology{}, fmt.Errorf("runtime: %d nodes", nodes)
	}
	if groups < 1 || groups > nodes {
		return Topology{}, fmt.Errorf("runtime: %d groups for %d nodes", groups, nodes)
	}
	t := Topology{
		Nodes:   nodes,
		Groups:  groups,
		RoleOf:  make([]Role, nodes),
		GroupOf: make([]int, nodes),
		SigmaOf: make([]int, groups),
		Members: make([][]int, groups),
	}
	for g := 0; g < groups; g++ {
		t.SigmaOf[g] = g
		t.GroupOf[g] = g
		t.RoleOf[g] = RoleGroupSigma
		t.Members[g] = []int{g}
	}
	t.RoleOf[0] = RoleMasterSigma
	for n := groups; n < nodes; n++ {
		g := (n - groups) % groups
		t.RoleOf[n] = RoleDelta
		t.GroupOf[n] = g
		t.Members[g] = append(t.Members[g], n)
	}
	return t, nil
}

// MemberIDs returns the node IDs whose contributions the group's Sigma
// folds each round (its own included) — the ordered aggregation buffer's
// member set.
func (t Topology) MemberIDs(group int) []uint32 {
	out := make([]uint32, 0, len(t.Members[group]))
	for _, n := range t.Members[group] {
		out = append(out, uint32(n))
	}
	return out
}

// MasterMemberIDs returns the node IDs the master Sigma folds each round:
// its own group's members plus one pre-summed aggregate per other group's
// Sigma.
func (t Topology) MasterMemberIDs() []uint32 {
	out := t.MemberIDs(0)
	for g := 1; g < t.Groups; g++ {
		out = append(out, uint32(t.SigmaOf[g]))
	}
	return out
}

// Validate checks internal consistency.
func (t Topology) Validate() error {
	if t.RoleOf[0] != RoleMasterSigma {
		return fmt.Errorf("runtime: node 0 is %v, want master sigma", t.RoleOf[0])
	}
	total := 0
	for g, members := range t.Members {
		total += len(members)
		for _, n := range members {
			if t.GroupOf[n] != g {
				return fmt.Errorf("runtime: node %d listed in group %d but assigned %d", n, g, t.GroupOf[n])
			}
		}
	}
	if total != t.Nodes {
		return fmt.Errorf("runtime: %d members across groups for %d nodes", total, t.Nodes)
	}
	return nil
}
