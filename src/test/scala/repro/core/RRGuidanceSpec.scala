package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.{GraphGen, PropertyGraph, Reference}

class RRGuidanceSpec extends SparkSpec {
  import TestUtil._

  test("chain graph: level equals position, lastIter equals level") {
    val g = graph(Seq((0L, 1L, 5.0), (1L, 2L, 5.0), (2L, 3L, 5.0)), chunks = 3)
    val r = RRGuidance.generate(g, Set(0L))
    assert(r.level == Map(0L -> 0, 1L -> 1, 2L -> 2, 3L -> 3))
    assert(r.lastIter == Map(1L -> 1, 2L -> 2, 3L -> 3))
    assert(r.maxLevel == 3)
  }

  test("Fig. 1 graph matches the reference guidance") {
    val g = figure1()
    val r = RRGuidance.generate(g, Set(0L))
    val (level, last) = Reference.bfsGuidance(collectEdges(g), Set(0L))
    assert(r.level == level && r.lastIter == last)
  }

  test("diamond: lastIter is the longest propagation level, not the shortest") {
    // 0->1->2->3 and 0->3: vertex 3 is reached at level 1 but last updated at 3.
    val g = graph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0), (0L, 3L, 1.0)), chunks = 4)
    val r = RRGuidance.generate(g, Set(0L))
    assert(r.level(3L) == 1 && r.lastIter(3L) == 3)
  }

  test("cycle terminates: each vertex enters the frontier once") {
    val g = graph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 0L, 1.0)), chunks = 3)
    val r = RRGuidance.generate(g, Set(0L))
    assert(r.level == Map(0L -> 0, 1L -> 1, 2L -> 2))
    // 0 is re-touched by 2's activation at iter 3.
    assert(r.lastIter(0L) == 3)
  }

  test("unreached vertices get the conservative lastIter maxLevel+1") {
    val g = graph(Seq((0L, 1L, 1.0), (2L, 3L, 1.0)), chunks = 2)
    val r = RRGuidance.generate(g, Set(0L))
    assert(r.levelOf(3L) == -1)
    assert(r.lastIterOf(3L) == r.maxLevel + 1)
  }

  test("multi-root generation starts all roots at level 0") {
    val g = graph(Seq((0L, 1L, 1.0), (2L, 1L, 1.0)), chunks = 2)
    val r = RRGuidance.generate(g, Set(0L, 2L))
    assert(r.level(0L) == 0 && r.level(2L) == 0 && r.level(1L) == 1)
    assert(r.lastIter(1L) == 1)
  }

  test("matches the reference on random RMAT graphs") {
    for (seed <- Seq(1L, 2L, 3L)) {
      val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(7, 300, seed))
      val root = g.maxOutDegVertex
      val r = RRGuidance.generate(g, Set(root))
      val (level, last) = Reference.bfsGuidance(collectEdges(g), Set(root))
      assert(r.level == level, s"seed=$seed levels differ")
      assert(r.lastIter == last, s"seed=$seed lastIter differ")
    }
  }

  test("lastIter >= level for every reached non-root") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(7, 250, 9))
    val r = RRGuidance.generate(g, Set(g.maxOutDegVertex))
    assert(r.lastIter.forall { case (v, li) => li >= r.level(v) })
  }

  test("edge work is one pass over edges reachable from the root set") {
    // Preprocessing cost (the paper's 'negligible overhead'): every edge is
    // processed exactly once, when its source enters the frontier.
    val g = figure1()
    val r = RRGuidance.generate(g, Set(0L))
    assert(r.edgeComputations == g.numEdges) // all of fig1 is reachable
  }

  test("defaultRoots picks all in-degree-0 vertices") {
    val g = graph(Seq((0L, 2L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0)), chunks = 3)
    assert(RRGuidance.defaultRoots(g) == Set(0L, 1L))
  }

  test("defaultRoots falls back to the minimum id on a fully cyclic graph") {
    val g = graph(Seq((0L, 1L, 1.0), (1L, 0L, 1.0)), chunks = 2)
    assert(RRGuidance.defaultRoots(g) == Set(0L))
  }

  test("levels match DuckDB reconstruction via min-hop SSSP") {
    val g = figure1()
    val r = RRGuidance.generate(g, Set(0L))
    // level(v) is the unweighted shortest hop count — check the levels of
    // the reached vertices against a DuckDB recursive min-hop query.
    val levels = valuesDF(spark, r.level.map { case (v, l) => v -> l.toDouble }, "level")
      .selectExpr("id", "CAST(level AS INT) AS level")
    Oracle.assertEquivalent(
      levels,
      """WITH RECURSIVE e AS (SELECT CAST(src AS BIGINT) s, CAST(dst AS BIGINT) d FROM edges),
        |walk(v, hops) AS (
        |  SELECT CAST(0 AS BIGINT), 0
        |  UNION
        |  SELECT e.d, walk.hops + 1 FROM walk JOIN e ON e.s = walk.v WHERE walk.hops < 10
        |)
        |SELECT v AS id, MIN(hops) AS level FROM walk GROUP BY v""".stripMargin,
      "edges" -> g.edges)
  }

  test("empty root set yields an empty guidance") {
    val g = figure1()
    val r = RRGuidance.generate(g, Set.empty)
    assert(r.level.isEmpty && r.lastIter.isEmpty && r.edgeComputations == 0)
  }
}
