package repro.bench

import repro.SparkSpec
import repro.graph.GraphGen.GraphSpec

class HarnessSpec extends SparkSpec {

  test("set-up starts no Spark job") {
    val sc = spark.sparkContext
    val spec = GraphSpec("S9", 9, 1500L, 7, 0.0, 0.0, 1, "RMAT")
    sc.setJobGroup("setup", "setup")
    val p = try Harness.prepare(spark, spec) finally sc.clearJobGroup()
    Thread.sleep(200)
    assert(sc.statusTracker.getJobIdsForGroup("setup").isEmpty)
    assert(p.g.numEdges > 0 && p.sym.numEdges > p.g.numEdges && p.rrgSym.maxLevel > 0)
    p.g.unpersist(); p.sym.unpersist()
  }
}
