package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{SparkSpec, TestUtil}

class GraphGenSpec extends SparkSpec {
  import TestUtil._

  private type Edge = (Long, Long, Double)

  /** The generators' SQL definition, the oracle for the local code: drop
    * self-loops and duplicates from the drawn pairs, order by
    * (abs(hash(src, dst)), src, dst), take `nEdges`, weight each edge.
    */
  private def sqlEdges(pairs: DataFrame, nEdges: Long): Set[Edge] = {
    val s = spark
    import s.implicits._
    val weight = udf((src: Long, dst: Long) => GraphGen.edgeWeight(src, dst, 10))
    pairs.filter($"src" =!= $"dst")
      .distinct()
      .orderBy(abs(hash($"src", $"dst")), $"src", $"dst")
      .limit(nEdges.toInt)
      .select($"src", $"dst", weight($"src", $"dst") as "weight")
      .as[Edge].collect().toSet
  }

  private def sqlRmat(scale: Int, nEdges: Long, seed: Long): Set[Edge] = {
    val s = spark
    import s.implicits._
    val edge = udf { (i: Long) =>
      val p = GraphGen.rmatEdge(scale, seed, i, 0.57, 0.19, 0.19)
      (p >>> 32, p & 0xFFFFFFFFL)
    }
    sqlEdges(spark.range(math.max(nEdges * 2, 64L)).select(edge($"id") as "e")
      .select($"e._1" as "src", $"e._2" as "dst"), nEdges)
  }

  private def sqlUniform(nVertices: Long, nEdges: Long, seed: Long): Set[Edge] = {
    val s = spark
    import s.implicits._
    val pair = udf((i: Long) => (java.lang.Math.floorMod(GraphGen.mix64(seed ^ GraphGen.mix64(2 * i)), nVertices),
      java.lang.Math.floorMod(GraphGen.mix64(seed ^ GraphGen.mix64(2 * i + 1)), nVertices)))
    sqlEdges(spark.range(math.max(nEdges * 2, 16L)).select(pair($"id") as "e")
      .select($"e._1" as "src", $"e._2" as "dst"), nEdges)
  }

  /** The list's triples, checked to hold no duplicate. */
  private def triples(e: EdgeList): Set[Edge] = {
    val set = e.src.indices.map(i => (e.src(i), e.dst(i), e.weight(i))).toSet
    assert(set.size == e.size, "duplicate edges")
    set
  }

  test("local rmat and uniform equal their SQL definition") {
    checkProp(Prop.forAll(Gen.choose(1, 10), Gen.choose(0L, 400L), Gen.choose(0L, 1000L)) {
      (scale: Int, nEdges: Long, seed: Long) =>
        triples(GraphGen.rmatEdges(scale, nEdges, seed)) == sqlRmat(scale, nEdges, seed)
    }, minSuccessful = 8)
    checkProp(Prop.forAll(Gen.choose(1L, 60L), Gen.choose(0L, 400L), Gen.choose(0L, 1000L)) {
      (nVertices: Long, nEdges: Long, seed: Long) =>
        triples(GraphGen.uniformEdges(nVertices, nEdges, seed)) == sqlUniform(nVertices, nEdges, seed)
    }, minSuccessful = 8)
  }

  test("catalog PK equals its SQL definition") {
    val pk = GraphGen.datasets.find(_.name == "PK").get
    val local = triples(GraphGen.rmatEdges(pk.scale, pk.targetEdges, pk.seed))
    assert(local.size == 30600 && local == sqlRmat(pk.scale, pk.targetEdges, pk.seed))
  }

  test("symmetrize equals SQL union + distinct, weights included") {
    val s = spark
    import s.implicits._
    // 1 -> 2 appears twice; 1 <-> 2 carry different weights in each direction.
    val literal = graph(spark, Seq((1L, 2L, 5.0), (1L, 2L, 5.0), (2L, 1L, 3.0), (2L, 3L, 1.0), (4L, 4L, 2.0)),
      chunks = 4)
    val dense = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(12, 90, 5)) // many reciprocal pairs
    for (g <- Seq(literal, dense, figure1(spark))) {
      val sql = g.edges.unionByName(g.edges.select($"dst" as "src", $"src" as "dst", $"weight")).distinct()
      assert(triples(g.symmetrize.layout.edgeList) == sql.as[Edge].collect().toSet, g.name)
      assert(collectEdges(g.symmetrize).toSet == sql.as[Edge].collect().toSet, g.name)
    }
    assert(triples(literal.symmetrize.layout.edgeList).count { case (a, b, _) => a == 1L && b == 2L } == 2)
  }

  private def sameEdges(a: EdgeList, b: EdgeList): Boolean =
    a.src.sameElements(b.src) && a.dst.sameElements(b.dst) && a.weight.sameElements(b.weight)

  test("concurrent generator calls equal a sequential call") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val calls = Seq[() => EdgeList](() => GraphGen.rmatEdges(12, 20000, 41), () => GraphGen.uniformEdges(3000, 20000, 42))
    for (call <- calls) {
      val sequential = call()
      assert(sequential.size > 15000)
      val concurrent = Await.result(Future.sequence(Seq.fill(4)(Future(call()))), 2.minutes)
      assert(concurrent.forall(sameEdges(_, sequential)))
    }
  }

  test("a sample of self-loops only gives no edge") {
    for (seed <- 0L to 3L) assert(GraphGen.uniformEdges(1, 10, seed).size == 0, s"seed $seed")
  }

  test("the local order sorts a hash of Int.MinValue first") {
    // Spark's `hash` of two bigints, as SQL computes it.
    val s = spark
    import s.implicits._
    val h = Seq((3L, 7L), (-1L, 1L << 40)).toDF("src", "dst").select(hash($"src", $"dst")).as[Int].collect()
    assert(h.toSeq == Seq(GraphGen.sqlHash(3L, 7L), GraphGen.sqlHash(-1L, 1L << 40)))
    assert(GraphGen.orderKey(Int.MinValue, 9) < GraphGen.orderKey(0, 0))
    assert(GraphGen.orderKey(-5, 0) > GraphGen.orderKey(4, 1) && GraphGen.orderKey(5, 0) < GraphGen.orderKey(5, 1))
  }

  test("mix64 is deterministic and spreads nearby inputs") {
    assert(GraphGen.mix64(1L) == GraphGen.mix64(1L))
    assert(GraphGen.mix64(1L) != GraphGen.mix64(2L))
    val outs = (0L until 1000L).map(GraphGen.mix64).toSet
    assert(outs.size == 1000)
  }

  test("rmatEdge stays inside the vertex id space") {
    checkProp(Prop.forAll(Gen.choose(1, 12), Gen.choose(0L, 1000000L)) { (scale: Int, i: Long) =>
      val p = GraphGen.rmatEdge(scale, 7L, i, 0.57, 0.19, 0.19)
      val (s, d) = (p >>> 32, p & 0xFFFFFFFFL)
      p >= 0 && s < (1L << scale) && d < (1L << scale)
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
    assert(triples(GraphGen.rmatEdges(8, 500, 5)) == triples(GraphGen.rmatEdges(8, 500, 5)))
  }

  test("rmat graphs with different seeds differ") {
    assert(triples(GraphGen.rmatEdges(8, 500, 5)) != triples(GraphGen.rmatEdges(8, 500, 6)))
  }

  test("rmat hits its target edge count (or close, after dedup)") {
    val n = GraphGen.rmatEdges(9, 800, 11).size
    assert(n <= 800 && n >= 700, s"got $n")
  }

  test("rmat has no self loops or duplicate edges") {
    val e = triples(GraphGen.rmatEdges(8, 600, 3)) // fails on a duplicate (src, dst, weight)
    assert(e.forall { case (s, d, _) => s != d })
    assert(e.map { case (s, d, _) => (s, d) }.size == e.size)
  }

  test("rmat degree distribution is skewed (hub degree far above average)") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(10, 4000, 17))
    val maxDeg = g.outDeg.values.max
    val avg = g.numEdges.toDouble / g.numVertices
    assert(maxDeg > 3 * avg, s"maxDeg=$maxDeg avg=$avg")
  }

  test("uniform generator is deterministic, self-loop free, in range") {
    val a = triples(GraphGen.uniformEdges(40, 120, 9))
    assert(a == triples(GraphGen.uniformEdges(40, 120, 9)))
    assert(a.forall { case (s, d, _) => s != d })
    assert(a.forall { case (s, d, _) => s >= 0 && s < 40 && d >= 0 && d < 40 })
  }

  test("uniform generator weight column is integral in [1,10]") {
    val ws = GraphGen.uniformEdges(30, 80, 2).weight
    assert(ws.nonEmpty && ws.forall(w => w >= 1 && w <= 10 && w == math.floor(w)))
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
