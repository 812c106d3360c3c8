package repro.core

import repro.{SparkSpec, TestUtil}
import repro.apps.Apps
import repro.graph.{GraphGen, PropertyGraph, Reference}

/** Boundary behaviours of the engines that the main suites don't pin down. */
class EngineEdgeCasesSpec extends SparkSpec {
  import TestUtil._

  test("SSSP with unit weights equals BFS hop distance") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 150, 201))
    val root = g.maxOutDegVertex
    val r = Engine.run(g, Apps.sssp(root, unitWeight = true), Schedule.Gemini)
    val (level, _) = Reference.bfsGuidance(collectEdges(g), Set(root))
    level.foreach { case (v, l) => assert(r.values(v) == l.toDouble, s"vertex $v") }
    r.values.filter(_._2 < 1e17).keys.foreach(v => assert(level.contains(v) || v == root))
  }

  test("unit-weight SSSP with RR equals BFS hop distance too") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 150, 202))
    val root = g.maxOutDegVertex
    val rrg = RRGuidance.generate(g, Set(root))
    val noRR = Engine.run(g, Apps.sssp(root, unitWeight = true), Schedule.Gemini)
    val withRR = Engine.run(g, Apps.sssp(root, unitWeight = true), Schedule.Slfe(rrg))
    assert(noRR.values == withRR.values)
  }

  test("single-edge graph converges in both engines") {
    val g = TestUtil.graph(spark, Seq((7L, 8L, 4.0)), chunks = 1)
    val rrg = RRGuidance.generate(g, Set(7L))
    val r = Engine.run(g, Apps.sssp(7L), Schedule.Slfe(rrg))
    assert(r.values == Map(7L -> 0.0, 8L -> 4.0))
  }

  test("self-contained two-cycle: CC labels collapse to the minimum") {
    val g = TestUtil.graph(spark, Seq((5L, 6L, 1.0), (6L, 5L, 1.0)), chunks = 2)
    val r = Engine.run(g, Apps.cc, Schedule.Gemini)
    assert(r.values == Map(5L -> 5.0, 6L -> 5.0))
  }

  test("WP with RR on the Fig. 1 graph matches the reference") {
    val g = figure1(spark)
    val rrg = RRGuidance.generate(g, Set(0L))
    val r = Engine.run(g, Apps.wp(0L), Schedule.Slfe(rrg))
    val expected = Reference.widestPath(collectEdges(g), 0L)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("unreachable root side: vertices beyond the root stay at init") {
    val g = TestUtil.graph(spark, Seq((0L, 1L, 1.0), (2L, 3L, 1.0)), chunks = 2)
    val rrg = RRGuidance.generate(g, Set(0L))
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Slfe(rrg))
    assert(r.values(1L) == 1.0 && r.values(3L) == Apps.Inf)
  }

  test("arith engine with zero iterations returns the initial state") {
    val g = figure1(spark)
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = 0)
    assert(r.iterations == 0 && r.values.values.forall(_ == 1.0))
  }

  test("RR arith run freezes vertices permanently once EC") {
    // A 3-cycle fed by a pure source (3), from which PR's default guidance
    // starts: PR needs many iterations, and the source is stable from
    // iteration 2 on, so it freezes long before the cycle does.
    val edges = Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 0L, 1.0), (3L, 0L, 1.0))
    val g = TestUtil.graph(spark, edges, chunks = 3)
    val rrg = RRGuidance.generate(g, RRGuidance.defaultRoots(g))
    val r = Engine.run(g, Apps.pagerank(), Schedule.Slfe(rrg), maxIters = 200)
    // EC freezing must not move the values off the fixpoint.
    assert(maxAbsDiff(r.values, Reference.pagerank(edges, 200)) < 1e-6)
    // Every vertex is computed at first; a frozen one never again.
    val computed = r.stats.map(_.computedVertices)
    assert(computed.size > 2 && computed.head == 4, computed)
    assert(computed.zip(computed.tail).forall { case (a, b) => b <= a }, computed)
    assert(computed.last < computed.head, computed)
  }

  test("a guidance generated on another graph is rejected") {
    val g = figure1(spark)
    val rrg = RRGuidance.generate(g, Set(0L))
    val sym = g.symmetrize
    val e = intercept[IllegalArgumentException](Engine.run(sym, Apps.cc, Schedule.Slfe(rrg)))
    assert(e.getMessage.contains("generated on fig1") && e.getMessage.contains("fig1-sym"))
    intercept[IllegalArgumentException](Engine.run(sym, Apps.pagerank(), Schedule.Slfe(rrg)))
  }

  test("metrics: wall time and per-iteration millis are populated") {
    val g = figure1(spark)
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Gemini)
    assert(r.stats.nonEmpty && r.stats.forall(s => s.edgeNanos > 0 && s.edgeNanos <= s.nanos))
    assert(r.wallNanos >= r.stats.map(_.nanos).sum)
    assert(r.seconds == r.wallNanos / 1e9)
  }

  test("RunResult aggregate helpers") {
    val stats = Seq(
      IterationStat(1, "pull", 10, 100, 5, 1000, 500),
      IterationStat(2, "push", 4, 40, 2, 1000, 500))
    val r = RunResult("S", "A", "G", Map(1L -> 0.0), stats, 2500000L)
    assert(r.totalComputations == 140 && r.totalUpdates == 7)
    assert(r.totalVertexComputations == 14)
    assert(r.computationsPerVertex(7) == 2.0)
    assert(r.updatesPerVertex(7) == 1.0)
    assert(r.seconds == 0.0025)
  }
}
