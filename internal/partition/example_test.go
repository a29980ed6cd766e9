package partition_test

import (
	"fmt"

	"gsfl/internal/partition"
)

// ExampleGroups shows the paper's default grouping: clients assigned to
// groups round-robin, as in "30 clients divided into 6 groups".
func ExampleGroups() {
	groups := partition.Groups(9, 3, "round-robin", nil, nil)
	for g, members := range groups {
		fmt.Printf("group %d: %v\n", g, members)
	}
	// Output:
	// group 0: [0 3 6]
	// group 1: [1 4 7]
	// group 2: [2 5 8]
}

// ExampleGroups_computeBalanced balances heterogeneous clients so no
// group becomes the straggler: the slow client (capacity 1) is paired
// with the fastest ones.
func ExampleGroups_computeBalanced() {
	capacities := []float64{10, 10, 1, 10}
	groups := partition.Groups(4, 2, "compute-balanced", capacities, nil)
	fmt.Println(len(groups[0]), len(groups[1]))
	// Output: 2 2
}
