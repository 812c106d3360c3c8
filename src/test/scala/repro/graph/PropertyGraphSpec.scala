package repro.graph

import repro.{Oracle, SparkSpec, TestUtil}

class PropertyGraphSpec extends SparkSpec {
  import TestUtil._

  private def fig1 = figure1(spark)

  test("vertexIds are the distinct endpoints, sorted") {
    assert(fig1.vertexIds.toSeq == Seq(0L, 1L, 2L, 3L, 4L, 5L))
  }

  test("numVertices / numEdges") {
    assert(fig1.numVertices == 6 && fig1.numEdges == 6)
  }

  test("out-degrees include sinks as zero") {
    val g = fig1
    assert(g.outDeg(0L) == 2 && g.outDeg(5L) == 0 && g.outDeg(4L) == 1)
  }

  test("in-degrees include sources as zero") {
    val g = fig1
    assert(g.inDeg(0L) == 0 && g.inDeg(4L) == 2 && g.inDeg(1L) == 1)
  }

  test("degree sums both equal |E|") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(30, 90, 4))
    assert(g.outDeg.values.sum == g.numEdges)
    assert(g.inDeg.values.sum == g.numEdges)
  }

  test("outNbrs matches the edge list") {
    val g = fig1
    assert(g.outNbrs(0L).sorted.toSeq == Seq(1L, 3L))
    assert(g.outNbrs(5L).isEmpty)
  }

  /** A degree view as a DataFrame (id, deg), zero degrees left out. */
  private def degrees(deg: Map[Long, Long]) =
    valuesDF(spark, deg.collect { case (v, d) if d > 0 => v -> d.toDouble }, "deg")
      .selectExpr("id", "CAST(deg AS BIGINT) AS deg")

  test("out-degree DataFrame matches DuckDB") {
    val g = fig1
    Oracle.assertEquivalent(degrees(g.outDeg),
      "SELECT src AS id, COUNT(*) AS deg FROM edges GROUP BY src", "edges" -> g.edges)
  }

  test("in-degree DataFrame matches DuckDB") {
    val g = fig1
    val sql = "SELECT dst AS id, COUNT(*) AS deg FROM edges GROUP BY dst"
    Oracle.assertEquivalent(degrees(g.inDeg), sql, "edges" -> g.edges)
    Oracle.assertEquivalent(g.inDegrees, sql, "edges" -> g.edges) // what the hybrid cut reads
  }

  test("maxOutDegVertex picks the hub, smallest id on ties") {
    assert(fig1.maxOutDegVertex == 0L)
    val tie = graph(spark, Seq((7L, 1L, 1.0), (3L, 2L, 1.0)), chunks = 2)
    assert(tie.maxOutDegVertex == 3L)
  }

  test("symmetrize contains both directions of every edge") {
    val s = fig1.symmetrize
    val pairs = s.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs.contains((0L, 1L)) && pairs.contains((1L, 0L)))
    assert(s.numEdges == 12) // no symmetric pairs in fig1 => exactly doubled
  }

  test("symmetrize is idempotent on the edge pair set") {
    val s1 = fig1.symmetrize
    val s2 = s1.symmetrize
    def pairs(g: PropertyGraph) =
      g.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs(s1) == pairs(s2))
  }

  test("symmetrize keeps the vertex set") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(25, 60, 8))
    assert(g.symmetrize.vertexIds.toSeq == g.vertexIds.toSeq)
  }

  test("cached() is idempotent and preserves counts") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(20, 40, 1)).cached()
    val n = g.numEdges
    assert(g.cached().numEdges == n)
    g.unpersist()
  }
}
