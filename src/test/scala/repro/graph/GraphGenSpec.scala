package repro.graph

import org.scalacheck.{Gen, Prop}
import repro.{SparkSpec, TestUtil}

class GraphGenSpec extends SparkSpec {
  import TestUtil._

  test("mix64 is deterministic and spreads nearby inputs") {
    assert(GraphGen.mix64(1L) == GraphGen.mix64(1L))
    assert(GraphGen.mix64(1L) != GraphGen.mix64(2L))
    val outs = (0L until 1000L).map(GraphGen.mix64).toSet
    assert(outs.size == 1000)
  }

  test("rmatEdge stays inside the vertex id space") {
    checkProp(Prop.forAll(Gen.choose(1, 12), Gen.choose(0L, 1000000L)) { (scale: Int, i: Long) =>
      val (s, d) = GraphGen.rmatEdge(scale, 7L, i, 0.57, 0.19, 0.19)
      s >= 0 && s < (1L << scale) && d >= 0 && d < (1L << scale)
    })
  }

  test("rmatEdge is deterministic in (seed, index)") {
    assert(GraphGen.rmatEdge(10, 3L, 42L, 0.57, 0.19, 0.19) ==
      GraphGen.rmatEdge(10, 3L, 42L, 0.57, 0.19, 0.19))
  }

  test("edgeWeight is integral and in [1, maxW]") {
    checkProp(Prop.forAll(Gen.choose(0L, 5000L), Gen.choose(0L, 5000L)) { (s: Long, d: Long) =>
      val w = GraphGen.edgeWeight(s, d, 10)
      w >= 1.0 && w <= 10.0 && w == math.floor(w)
    })
  }

  test("rmat generator is deterministic in its arguments") {
    val a = GraphGen.rmat(spark, 8, 500, 5).collect().toSet
    val b = GraphGen.rmat(spark, 8, 500, 5).collect().toSet
    assert(a == b)
  }

  test("rmat graphs with different seeds differ") {
    val a = GraphGen.rmat(spark, 8, 500, 5).collect().toSet
    val b = GraphGen.rmat(spark, 8, 500, 6).collect().toSet
    assert(a != b)
  }

  test("rmat hits its target edge count (or close, after dedup)") {
    val n = GraphGen.rmat(spark, 9, 800, 11).count()
    assert(n <= 800 && n >= 700, s"got $n")
  }

  test("rmat has no self loops or duplicate edges") {
    val df = GraphGen.rmat(spark, 8, 600, 3).cache()
    assert(df.filter("src = dst").count() == 0)
    assert(df.select("src", "dst").distinct().count() == df.count())
    df.unpersist()
  }

  test("rmat degree distribution is skewed (hub degree far above average)") {
    val g = PropertyGraph(GraphGen.rmat(spark, 10, 4000, 17))
    val maxDeg = g.outDeg.values.max
    val avg = g.numEdges.toDouble / g.numVertices
    assert(maxDeg > 3 * avg, s"maxDeg=$maxDeg avg=$avg")
  }

  test("uniform generator is deterministic, self-loop free, in range") {
    val a = GraphGen.uniform(spark, 40, 120, 9).collect()
    val b = GraphGen.uniform(spark, 40, 120, 9).collect()
    assert(a.toSet == b.toSet)
    assert(a.forall(r => r.getLong(0) != r.getLong(1)))
    assert(a.forall(r => r.getLong(0) >= 0 && r.getLong(0) < 40 && r.getLong(1) >= 0 && r.getLong(1) < 40))
  }

  test("uniform generator weight column is integral in [1,10]") {
    val ws = GraphGen.uniform(spark, 30, 80, 2).select("weight").collect().map(_.getDouble(0))
    assert(ws.forall(w => w >= 1 && w <= 10 && w == math.floor(w)))
  }

  test("datasets catalog covers the paper's seven graphs") {
    assert(GraphGen.datasets.map(_.name) == Seq("PK", "OK", "LJ", "WK", "DI", "ST", "FS"))
  }

  test("datasets catalog: FS stand-in has the largest edge target") {
    val fs = GraphGen.datasets.find(_.name == "FS").get
    assert(GraphGen.datasets.forall(_.targetEdges <= fs.targetEdges))
  }

  test("datasets catalog: paper sizes and divisors are consistent") {
    GraphGen.datasets.foreach { s =>
      val scaledE = s.paperEdges / s.divisor
      assert(math.abs(scaledE - s.targetEdges) <= scaledE / 10 + 100,
        s"${s.name}: scaled=$scaledE target=${s.targetEdges}")
      assert(s.paperVertices > 0 && (1L << s.scale) >= s.paperVertices / s.divisor / 2)
    }
  }
}
