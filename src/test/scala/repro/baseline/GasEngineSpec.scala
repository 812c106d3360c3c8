package repro.baseline

import repro.{SparkSpec, TestUtil}
import repro.apps.Apps
import repro.core.{Engine, RRGuidance, Schedule}
import repro.graph.{GraphGen, PropertyGraph, Reference}

/** The PowerG/PowerL baseline simulators must agree with the references on
  * results while exhibiting the redundancy ordering the paper measures.
  */
class GasEngineSpec extends SparkSpec {
  import TestUtil._

  test("dense GAS SSSP matches Dijkstra") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 150, 111))
    val root = g.maxOutDegVertex
    val expected = Reference.sssp(collectEdges(g), root)
    val r = Engine.run(g, Apps.sssp(root), Schedule.PowerG)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("signaled GAS SSSP matches Dijkstra") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 150, 112))
    val root = g.maxOutDegVertex
    val expected = Reference.sssp(collectEdges(g), root)
    val r = Engine.run(g, Apps.sssp(root), Schedule.PowerL)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("dense and signaled GAS agree with the SLFE engine on CC") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(25, 45, 113)).symmetrize
    val slfe = Engine.run(g, Apps.cc, Schedule.Gemini)
    val dense = Engine.run(g, Apps.cc, Schedule.PowerG)
    val signaled = Engine.run(g, Apps.cc, Schedule.PowerL)
    assert(dense.values == slfe.values)
    assert(signaled.values == slfe.values)
  }

  test("dense GAS WP matches the reference") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(20, 55, 114))
    val root = g.maxOutDegVertex
    val expected = Reference.widestPath(collectEdges(g), root)
    val r = Engine.run(g, Apps.wp(root), Schedule.PowerG)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("dense GAS PR matches the reference power iteration") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 120, 115))
    val expected = Reference.pagerank(collectEdges(g), 8)
    val r = Engine.run(g, Apps.pagerank(), Schedule.PowerG, maxIters = 8)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("signaled GAS PR matches the reference power iteration") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 120, 116))
    val expected = Reference.pagerank(collectEdges(g), 8)
    val r = Engine.run(g, Apps.pagerank(), Schedule.PowerL, maxIters = 8)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("signaled GAS TR matches the reference") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 120, 117))
    val expected = Reference.tunkrank(collectEdges(g), 6)
    val r = Engine.run(g, Apps.tunkrank(), Schedule.PowerL, maxIters = 6)
    assert(maxAbsDiff(r.values, expected) < 1e-9)
  }

  test("redundancy ordering on SSSP: PowerG >= PowerL and SLFE <= Gemini computations") {
    // PowerG vs PowerL (dense vs signaled gather) and SLFE vs Gemini (RR vs
    // no RR on the identical engine) are the substrate-independent orderings;
    // SLFE vs PowerL in *counts* is graph-dependent (see DESIGN.md).
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(8, 600, 118))
    val root = g.maxOutDegVertex
    val rrg = RRGuidance.generate(g, Set(root))
    val powerG = Engine.run(g, Apps.sssp(root), Schedule.PowerG)
    val powerL = Engine.run(g, Apps.sssp(root), Schedule.PowerL)
    val gemini = Engine.run(g, Apps.sssp(root), Schedule.Gemini)
    val slfe = Engine.run(g, Apps.sssp(root), Schedule.Slfe(rrg))
    assert(powerG.totalComputations >= powerL.totalComputations,
      s"G=${powerG.totalComputations} L=${powerL.totalComputations}")
    assert(slfe.totalComputations <= gemini.totalComputations,
      s"S=${slfe.totalComputations} Gem=${gemini.totalComputations}")
  }

  test("dense GAS per-iteration computations include the change-blind scatter") {
    val g = figure1(spark)
    val r = Engine.run(g, Apps.sssp(0L), Schedule.PowerG)
    // every iteration gathers all in-edges (|E|) and scatters all out-edges (|E|)
    r.stats.foreach(s => assert(s.edgeComputations == 2 * g.numEdges))
  }

  test("signaled GAS stops when the signal set drains") {
    // Chain 0->1->2: iter 1 settles vertex 1, iter 2 settles vertex 2 whose
    // scatter signals nobody — the loop exits right there.
    val g = TestUtil.graph(spark, Seq((0L, 1L, 1.0), (1L, 2L, 1.0)), chunks = 2)
    val r = Engine.run(g, Apps.sssp(0L), Schedule.PowerL)
    assert(r.iterations == 2)
    assert(r.values == Map(0L -> 0.0, 1L -> 1.0, 2L -> 2.0))
  }

  test("dense GAS fails loudly if maxIters is insufficient") {
    val g = figure1(spark)
    intercept[IllegalArgumentException] {
      Engine.run(g, Apps.sssp(0L), Schedule.PowerG, maxIters = 1)
    }
  }

  test("updates-per-vertex ordering on SSSP: baselines above SLFE (Table 2 shape)") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(7, 350, 119))
    val root = g.maxOutDegVertex
    val rrg = RRGuidance.generate(g, Set(root))
    val powerL = Engine.run(g, Apps.sssp(root), Schedule.PowerL)
    val slfe = Engine.run(g, Apps.sssp(root), Schedule.Slfe(rrg))
    assert(powerL.totalUpdates >= slfe.totalUpdates)
  }
}
