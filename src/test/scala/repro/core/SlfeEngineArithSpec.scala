package repro.core

import org.apache.spark.sql.functions.{col, round}
import repro.{Oracle, SparkSpec, TestUtil}
import repro.apps.Apps
import repro.graph.{GraphGen, PropertyGraph, Reference}

/** The "finish early" half of the paper: arithmetic applications with the
  * multi-ruler stability tracking (paper Alg. 5 `vertexUpdate`).
  */
class SlfeEngineArithSpec extends SparkSpec {
  import TestUtil._

  test("PR without RR equals the reference power iteration exactly in shape") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(6, 150, 91))
    val iters = 10
    val expected = Reference.pagerank(collectEdges(g), iters)
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = iters)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("PR with RR stays within tolerance of the full computation") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(6, 150, 92))
    val iters = 40
    val expected = Reference.pagerank(collectEdges(g), iters)
    val rrg = RRGuidance.generate(g, Set(g.maxOutDegVertex))
    val r = Engine.run(g, Apps.pagerank(), Schedule.Slfe(rrg), maxIters = iters)
    // EC vertices freeze once stable for lastIter rounds; by convergence the
    // frozen values agree with the exact fixpoint to ~eps precision.
    assert(maxAbsDiff(r.values, expected) < 1e-4)
  }

  test("PR matches the DuckDB iterated-CTE oracle (3 iterations, rounded)") {
    val g = PropertyGraph(chunks = 1)(GraphGen.uniformEdges(15, 40, 93))
    val iters = 3
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = iters)
    val got = valuesDF(spark, r.values, "v").select(col("id"), round(col("v"), 4) as "rank")
    Oracle.assertEquivalent(got, prSql(iters), "edges" -> g.edges, "verts" -> g.vertices)
  }

  test("PR of a 2-cycle converges to the analytic fixpoint 1.0") {
    val g = TestUtil.graph(Seq((0L, 1L, 1.0), (1L, 0L, 1.0)), chunks = 2)
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = 50)
    assert(math.abs(r.values(0L) - 1.0) < 1e-9 && math.abs(r.values(1L) - 1.0) < 1e-9)
  }

  test("pure sources are computed at least once despite lastIter 0") {
    // In-degree-0 vertices have no RRG entry from any root set; the engine
    // clamps their ruler to 1 so their first apply (rank -> 0.15) happens.
    val g = TestUtil.graph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0)), chunks = 2)
    val rrg = RRGuidance.generate(g, Set(0L))
    val r = Engine.run(g, Apps.pagerank(), Schedule.Slfe(rrg), maxIters = 20)
    assert(math.abs(r.values(0L) - 0.15) < 1e-12)
  }

  test("TR without RR equals the reference") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(6, 150, 94))
    val iters = 10
    val expected = Reference.tunkrank(collectEdges(g), iters)
    val r = Engine.run(g, Apps.tunkrank(), Schedule.Gemini, maxIters = iters)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("TR with RR stays within tolerance") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(6, 150, 95))
    val iters = 40
    val expected = Reference.tunkrank(collectEdges(g), iters)
    val rrg = RRGuidance.generate(g, Set(g.maxOutDegVertex))
    val r = Engine.run(g, Apps.tunkrank(), Schedule.Slfe(rrg), maxIters = iters)
    assert(maxAbsDiff(r.values, expected) < 1e-4)
  }

  test("EC vertices reduce computed-vertex counts over the run (finish early)") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(7, 400, 96))
    val iters = 30
    val rrg = RRGuidance.generate(g, Set(g.maxOutDegVertex))
    val noRR = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = iters)
    val withRR = Engine.run(g, Apps.pagerank(), Schedule.Slfe(rrg), maxIters = iters)
    assert(withRR.totalComputations < noRR.totalComputations,
      s"RR=${withRR.totalComputations} noRR=${noRR.totalComputations}")
    // Later iterations compute strictly fewer vertices than the first.
    assert(withRR.stats.last.computedVertices < withRR.stats.head.computedVertices)
  }

  test("without RR every iteration computes every vertex (the paper's redundancy)") {
    val g = PropertyGraph(chunks = 1)(GraphGen.uniformEdges(25, 60, 97))
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = 5)
    assert(r.stats.forall(_.computedVertices == g.numVertices))
  }

  test("an arithmetic run halts once no computed vertex changes") {
    val g = TestUtil.graph(Seq((0L, 1L, 1.0)), chunks = 1)
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = 100)
    assert(r.iterations < 100)
    // Fixpoint: 0 -> 0.15, 1 -> 0.15 + 0.85*0.15.
    assert(math.abs(r.values(1L) - (0.15 + 0.85 * 0.15)) < 1e-9)
  }

  test("per-iteration stats are internally consistent") {
    val g = PropertyGraph(chunks = 1)(GraphGen.uniformEdges(20, 50, 98))
    val r = Engine.run(g, Apps.pagerank(), Schedule.Gemini, maxIters = 4)
    r.stats.foreach { s =>
      assert(s.updates <= s.computedVertices)
      assert(s.edgeComputations <= g.numEdges)
      assert(s.mode == "pull") // arithmetic apps always pull (paper footnote 2)
    }
    assert(r.iterations == 4)
  }
}
