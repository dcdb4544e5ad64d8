// Adversarial: the impossibility side of the paper, live. The Theorem 5.1
// adversary confines any single robot to 2 nodes; the Theorem 4.1 adversary
// confines any two robots to 3 nodes — here demonstrated against the
// strongest single-robot candidate (bounce-on-missing) and against the
// paper's own PEF_3+ run below its robot requirement. The printed
// space-time diagrams are the executable Figures 2 and 3.
//
//	go run ./examples/adversarial
package main

import (
	"fmt"
	"log"

	"pef"
)

func main() {
	const n = 8

	bounce, err := pef.NewAlgorithm("bounce-on-missing")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Theorem 5.1: one robot, ring of size 8 (Figure 3) ===")
	rep1, diag1, err := pef.ConfineOneRobotWithDiagram(bounce, n, 400, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(diag1)
	fmt.Printf("\nbounce-on-missing visited %d/%d nodes %v — confined: %t\n\n",
		rep1.DistinctVisited, n, rep1.VisitedNodes, rep1.Confined)

	fmt.Println("=== Theorem 4.1: two robots, ring of size 8 (Figure 2) ===")
	rep2, diag2, err := pef.ConfineTwoRobotsWithDiagram(bounce, n, 400, 14)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(diag2)
	fmt.Printf("\nbounce-on-missing pair visited %d/%d nodes %v — confined: %t\n\n",
		rep2.DistinctVisited, n, rep2.VisitedNodes, rep2.Confined)

	fmt.Println("=== The paper's own algorithms below their robot requirement ===")
	for _, name := range []string{"pef3+", "pef2", "pef1"} {
		alg, err := pef.NewAlgorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		one, _, err := pef.ConfineOneRobotWithDiagram(alg, n, 400, 0)
		if err != nil {
			log.Fatal(err)
		}
		two, _, err := pef.ConfineTwoRobotsWithDiagram(alg, n, 400, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s  1 robot: %d nodes (confined %t)   2 robots: %d nodes (confined %t)\n",
			name, one.DistinctVisited, one.Confined, two.DistinctVisited, two.Confined)
	}
	fmt.Println("\nThree robots are not a convenience — they are the computability threshold.")
}
