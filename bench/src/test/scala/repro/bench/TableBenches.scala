package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

/** Bench suites, one per evaluation table (see DESIGN.md §4). Each prints
  * the table rows to stdout so `sbt "bench/test" | tee bench_output.txt`
  * captures everything EXPERIMENTS.md diffs against the paper.
  */
abstract class BenchBase extends AnyFunSuite {
  protected def emit(s: String): Unit = { println(s); info(s) }
}

/** Paper Table 4: the seven datasets (scaled stand-ins). */
class Table4Bench extends BenchBase {
  test("Table 4: dataset statistics") {
    Harness.table4(GraphGen.datasets, emit)
  }
}

/** Paper Table 2: SSSP computations per vertex across systems. */
class Table2Bench extends BenchBase {
  test("Table 2: SSSP computations per vertex") {
    Harness.table2(GraphGen.datasets, emit)
  }
}

/** Paper Table 5: five applications x seven graphs x four systems. */
class Table5Bench extends BenchBase {
  test("Table 5: runtime/computations of PowerG, PowerL, Gemini, SLFE") {
    Harness.table5(GraphGen.datasets, emit)
  }
}

/** Paper Fig. 8 companion: RRG preprocessing overhead vs SSSP runtime. */
class OverheadBench extends BenchBase {
  test("Preprocessing overhead") {
    Harness.overhead(GraphGen.datasets, emit)
  }
}

/** Paper Fig. 10 companion: chunk skew under start-late, replication factors. */
class BalanceBench extends BenchBase {
  test("Intra/inter-node balance substrates") {
    Harness.balance(GraphGen.datasets, emit)
  }
}
