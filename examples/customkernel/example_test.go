package main

// Example runs the program and pins its printed output: the simulator is
// seeded, so every run prints the same report.
func Example() {
	main()
	// Output:
	// same machine, same workload, three detector-thread programs:
	//
	// Type 1 (paper)       IPC 0.650, 32 switches, 256 VM instructions executed
	//                      timeline: IBIBIBIBIBIBIBIBIBIBIBIBIBIBIBIB   (I=ICOUNT B=BRCOUNT L=L1MISSCOUNT M=MEMCOUNT R=RR)
	// Type 3 (paper)       IPC 0.879, 28 switches, 1968 VM instructions executed
	//                      timeline: ILLLILILLLILILILILILILILILILILIL   (I=ICOUNT B=BRCOUNT L=L1MISSCOUNT M=MEMCOUNT R=RR)
	// lsq-guard (custom)   IPC 0.680, 0 switches, 352 VM instructions executed
	//                      timeline: IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII   (I=ICOUNT B=BRCOUNT L=L1MISSCOUNT M=MEMCOUNT R=RR)
	//
	// the kernel is data: edit the assembly above and re-run — no simulator
	// (i.e. 'hardware') change needed, which is the ADTS deployment story.
}
