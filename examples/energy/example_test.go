package main

// Example runs the program and pins its printed output: the simulator is
// seeded, so every run prints the same report.
func Example() {
	main()
	// Output:
	// === fixed ICOUNT ===
	// throughput 1.565 IPC, fairness (Jain) 0.95
	// energy 2.66e+07 units over 212992 cycles (324759 committed)
	//   EPI 81.90, power 124.88/cycle, wrong-path 1.8%, EDP 5.67e+12
	//   caches       53.0%
	//   commit        2.4%
	//   execute       6.6%
	//   front-end    17.2%
	//   predictor     0.7%
	//   static       20.0%
	//
	// === fixed RR ===
	// throughput 1.132 IPC, fairness (Jain) 0.98
	// energy 2.16e+07 units over 212992 cycles (233173 committed)
	//   EPI 92.79, power 101.58/cycle, wrong-path 1.1%, EDP 4.61e+12
	//   caches       52.0%
	//   commit        2.2%
	//   execute       5.7%
	//   front-end    14.8%
	//   predictor     0.7%
	//   static       24.6%
	//
	// === ADTS Type 3 m=2 ===
	// throughput 1.643 IPC, fairness (Jain) 0.88
	// energy 2.68e+07 units over 212992 cycles (340142 committed)
	//   EPI 78.89, power 125.99/cycle, wrong-path 3.2%, EDP 5.72e+12
	//   caches       50.8%
	//   commit        2.5%
	//   execute       7.2%
	//   front-end    18.8%
	//   predictor     0.8%
	//   static       19.8%
	//
	// reading: RR wastes fetch slots on clogged threads (higher EPI at lower IPC);
	// the wrong-path share of energy tracks each scheduler's mispredict exposure.
}
