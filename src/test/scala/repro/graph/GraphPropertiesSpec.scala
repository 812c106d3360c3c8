package repro.graph

import org.scalacheck.{Gen, Prop}
import repro.{SparkSpec, TestUtil}

/** Cross-cutting generator/graph properties beyond the basic specs. */
class GraphPropertiesSpec extends SparkSpec {
  import TestUtil._

  test("symmetrize preserves each direction's weight") {
    val g = graph(spark, Seq((1L, 2L, 5.0)), chunks = 1)
    val s = g.symmetrize
    val rows = s.edges.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(rows == Set((1L, 2L, 5.0), (2L, 1L, 5.0)))
  }

  test("vertexIds of a generated graph are exactly the edge endpoints") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(30, 60, 13))
    val eps = collectEdges(g).flatMap(e => Seq(e._1, e._2)).toSet
    assert(g.vertexIds.toSet == eps)
  }

  test("outNbrs sizes equal out-degrees everywhere") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(25, 70, 14))
    g.vertexIds.foreach(v => assert(g.outNbrs(v).length.toLong == g.outDeg(v)))
  }

  test("property: rmatEdge quadrant probabilities favor the 0-0 corner") {
    val n = 4000
    val hits = (0 until n).count { i =>
      val p = GraphGen.rmatEdge(8, 5L, i.toLong, 0.57, 0.19, 0.19)
      (p >>> 32) < 128 && (p & 0xFFFFFFFFL) < 128 // top-level quadrant (0,0)
    }
    // a=0.57 at the first level; allow generous sampling noise
    assert(hits > n * 0.50 && hits < n * 0.64, s"hits=$hits")
  }

  test("property: edge weights are deterministic per (src,dst)") {
    checkProp(Prop.forAll(Gen.choose(0L, 999L), Gen.choose(0L, 999L)) { (s: Long, d: Long) =>
      GraphGen.edgeWeight(s, d, 10) == GraphGen.edgeWeight(s, d, 10)
    }, minSuccessful = 40)
  }

  test("datasets build() respects the requested partition count") {
    val spec = GraphGen.datasets.head
    val g = GraphGen.build(spark, spec, partitions = 4)
    assert(g.layout.numChunks == 4 && g.symmetrize.layout.numChunks == 4)
  }
}
