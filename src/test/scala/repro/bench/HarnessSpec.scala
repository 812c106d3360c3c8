package repro.bench

import repro.{SparkSpec, TestUtil}
import repro.graph.GraphGen.GraphSpec

class HarnessSpec extends SparkSpec {

  test("set-up starts no Spark job") {
    val spec = GraphSpec("S9", 9, 1500L, 7, 0.0, 0.0, 1, "RMAT")
    val (p, jobs) = TestUtil.sparkJobs(spark)(Harness.prepare(spec))
    assert(jobs == 0)
    assert(p.g.numEdges > 0 && p.sym.numEdges > p.g.numEdges && p.rrgSym.maxLevel > 0)
  }
}
