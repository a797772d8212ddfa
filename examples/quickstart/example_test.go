package main

// Example runs the program and pins its printed output: the simulator is
// seeded, so every run prints the same report.
func Example() {
	main()
	// Output:
	// workload: kitchen-sink — diverse: one application from every behavioural corner
	// applications: [gzip gcc mcf crafty swim art lucas equake]
	//
	// simulated 262144 cycles, committed 462739 instructions
	// aggregate throughput: 1.765 IPC
	//
	// per-thread committed IPC:
	//   thread 0 (equake ): 0.125
	//   thread 1 (lucas  ): 0.412
	//   thread 2 (gzip   ): 0.263
	//   thread 3 (art    ): 0.095
	//   thread 4 (mcf    ): 0.050
	//   thread 5 (gcc    ): 0.242
	//   thread 6 (crafty ): 0.312
	//   thread 7 (swim   ): 0.267
	//
	// workload character: 6.6% of fetched instructions were wrong-path;
	// per-cycle rates: 0.305 L1 misses, 0.0116 mispredicts, 0.127 conditional branches
}
