package main

// Example runs the program and pins its printed output: the simulator is
// seeded, so every run prints the same report.
func Example() {
	main()
	// Output:
	// workload "mixed-lowipc", 8 threads, 48 quanta of 8K cycles
	//
	// fixed ICOUNT: 0.725 IPC
	// ADTS Type 3, m=2: 0.984 IPC (+35.6% vs fixed)
	//
	// detector activity: 42/48 quanta low-throughput, 42 policy switches
	// switch quality: 23 benign, 18 malignant (P(benign) = 0.56)
	// detector-thread cost: 48 jobs run in 75008 leftover fetch slots (0 preempted)
	//
	// policy timeline (one row per scheduling quantum):
	//   quantum  engaged-policy  quantum-IPC   (* = below threshold m=2)
	//   q00  ICOUNT        0.610 * ######
	//   q01  L1MISSCOUNT   2.240   ######################
	//   q02  L1MISSCOUNT   2.726   ###########################
	//   q03  L1MISSCOUNT   0.523 * #####
	//   q04  ICOUNT        0.618 * ######
	//   q05  L1MISSCOUNT   0.966 * #########
	//   q06  ICOUNT        0.801 * ########
	//   q07  L1MISSCOUNT   2.821   ############################
	//   q08  L1MISSCOUNT   2.734   ###########################
	//   q09  L1MISSCOUNT   0.662 * ######
	//   q10  ICOUNT        0.571 * #####
	//   q11  L1MISSCOUNT   0.476 * ####
	//   q12  ICOUNT        0.591 * #####
	//   q13  L1MISSCOUNT   0.537 * #####
	//   q14  ICOUNT        0.585 * #####
	//   q15  L1MISSCOUNT   0.539 * #####
	//   q16  ICOUNT        0.644 * ######
	//   q17  L1MISSCOUNT   0.550 * #####
	//   q18  ICOUNT        0.622 * ######
	//   q19  L1MISSCOUNT   0.501 * #####
	//   q20  ICOUNT        0.641 * ######
	//   q21  L1MISSCOUNT   0.613 * ######
	//   q22  ICOUNT        0.656 * ######
	//   q23  L1MISSCOUNT   0.637 * ######
	//   q24  ICOUNT        0.714 * #######
	//   q25  L1MISSCOUNT   0.626 * ######
	//   q26  ICOUNT        0.635 * ######
	//   q27  L1MISSCOUNT   0.639 * ######
	//   q28  ICOUNT        0.718 * #######
	//   q29  L1MISSCOUNT   0.574 * #####
	//   q30  ICOUNT        0.694 * ######
	//   q31  L1MISSCOUNT   0.606 * ######
	//   q32  ICOUNT        0.676 * ######
	//   q33  L1MISSCOUNT   0.685 * ######
	//   q34  ICOUNT        0.746 * #######
	//   q35  L1MISSCOUNT   0.683 * ######
	//   q36  ICOUNT        0.743 * #######
	//   q37  L1MISSCOUNT   1.137 * ###########
	//   q38  ICOUNT        0.820 * ########
	//   q39  L1MISSCOUNT   3.221   ################################
	//   q40  L1MISSCOUNT   3.447   ##################################
	//   q41  L1MISSCOUNT   1.651 * ################
	//   q42  ICOUNT        0.760 * #######
	//   q43  L1MISSCOUNT   0.692 * ######
	//   q44  ICOUNT        0.781 * #######
	//   q45  L1MISSCOUNT   1.599 * ###############
	//   q46  ICOUNT        0.767 * #######
	//   q47  L1MISSCOUNT   0.729 * #######
}
