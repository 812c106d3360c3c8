package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.apps.Apps
import repro.graph.{GraphGen, PropertyGraph, Reference}

/** The "start late" half of the paper: min/max applications on the SLFE
  * engine, with and without redundancy reduction, against Dijkstra-family
  * references and DuckDB recursive-CTE oracles.
  */
class SlfeEngineMinMaxSpec extends SparkSpec {
  import TestUtil._

  private def ssspBoth(g: PropertyGraph, root: Long): (RunResult, RunResult) = {
    val rrg = RRGuidance.generate(g, Set(root))
    val noRR = Engine.run(g, Apps.sssp(root), Schedule.Gemini)
    val withRR = Engine.run(g, Apps.sssp(root), Schedule.Slfe(rrg))
    (noRR, withRR)
  }

  test("SSSP without RR reproduces the paper's Fig. 1 final distances") {
    val g = figure1(spark)
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Gemini)
    assert(r.values == Map(0L -> 0.0, 1L -> 1.0, 2L -> 2.0, 3L -> 2.0, 4L -> 3.0, 5L -> 4.0))
  }

  test("SSSP with RR reproduces the same Fig. 1 distances (Theorem 1)") {
    val g = figure1(spark)
    val (_, withRR) = ssspBoth(g, 0L)
    assert(withRR.values == Map(0L -> 0.0, 1L -> 1.0, 2L -> 2.0, 3L -> 2.0, 4L -> 3.0, 5L -> 4.0))
  }

  test("SSSP matches Dijkstra on random RMAT graphs, with and without RR") {
    for (seed <- Seq(21L, 22L, 23L)) {
      val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 150, seed))
      val root = g.maxOutDegVertex
      val expected = Reference.sssp(collectEdges(g), root)
      val (noRR, withRR) = ssspBoth(g, root)
      assert(maxAbsDiff(noRR.values, expected) < 1e-9, s"seed=$seed noRR")
      assert(maxAbsDiff(withRR.values, expected) < 1e-9, s"seed=$seed withRR")
    }
  }

  test("SSSP final distances match the DuckDB recursive oracle") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(25, 70, 31))
    val root = g.maxOutDegVertex
    val r = Engine.run(g, Apps.sssp(root), Schedule.Gemini)
    val reachable = r.values.filter(_._2 < 1e17)
    Oracle.assertEquivalent(
      valuesDF(spark, reachable, "dist"),
      ssspSql(root, bound = 25.0 * 10 + 1),
      "edges" -> g.edges)
  }

  test("SSSP with RR matches the DuckDB recursive oracle too") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(25, 70, 32))
    val root = g.maxOutDegVertex
    val rrg = RRGuidance.generate(g, Set(root))
    val r = Engine.run(g, Apps.sssp(root), Schedule.Slfe(rrg))
    Oracle.assertEquivalent(
      valuesDF(spark, r.values.filter(_._2 < 1e17), "dist"),
      ssspSql(root, bound = 25.0 * 10 + 1),
      "edges" -> g.edges)
  }

  test("CC labels every vertex with its component minimum (vs union-find)") {
    for (seed <- Seq(41L, 42L)) {
      val base = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(30, 45, seed))
      val g = base.symmetrize
      val expected = Reference.components(collectEdges(base)).map { case (k, v) => k -> v.toDouble }
      val rrg = RRGuidance.generate(g, Set(g.vertexIds.min))
      val noRR = Engine.run(g, Apps.cc, Schedule.Gemini)
      val withRR = Engine.run(g, Apps.cc, Schedule.Slfe(rrg))
      assert(maxAbsDiff(noRR.values, expected) == 0.0, s"seed=$seed noRR")
      assert(maxAbsDiff(withRR.values, expected) == 0.0, s"seed=$seed withRR")
    }
  }

  test("CC matches the DuckDB min-label closure oracle") {
    val g = TestUtil.graph(spark,
      Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (5L, 6L, 1.0), (7L, 5L, 1.0), (9L, 9L + 1, 1.0)), chunks = 4)
      .symmetrize
    val r = Engine.run(g, Apps.cc, Schedule.Gemini)
    import org.apache.spark.sql.functions.col
    val labels = valuesDF(spark, r.values, "v").select(col("id"), col("v").cast("long") as "label")
    Oracle.assertEquivalent(labels, ccSql, "edges" -> g.edges, "verts" -> g.vertices)
  }

  test("WP matches the reference widest path, with and without RR") {
    for (seed <- Seq(51L, 52L)) {
      val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(6, 180, seed))
      val root = g.maxOutDegVertex
      val expected = Reference.widestPath(collectEdges(g), root)
      val rrg = RRGuidance.generate(g, Set(root))
      val noRR = Engine.run(g, Apps.wp(root), Schedule.Gemini)
      val withRR = Engine.run(g, Apps.wp(root), Schedule.Slfe(rrg))
      assert(maxAbsDiff(noRR.values, expected) < 1e-9, s"seed=$seed noRR")
      assert(maxAbsDiff(withRR.values, expected) < 1e-9, s"seed=$seed withRR")
    }
  }

  test("WP matches the DuckDB max-min closure oracle") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(20, 50, 61))
    val root = g.maxOutDegVertex
    val r = Engine.run(g, Apps.wp(root), Schedule.Gemini)
    Oracle.assertEquivalent(
      valuesDF(spark, r.values.filter(_._2 > 0.0), "width"),
      wpSql(root),
      "edges" -> g.edges)
  }

  test("RR and no-RR converge to identical values on many seeds (Theorem 1)") {
    for (seed <- 71L to 75L) {
      val g = PropertyGraph(spark, chunks = 1)(GraphGen.uniformEdges(20, 55, seed))
      val root = g.maxOutDegVertex
      val (noRR, withRR) = ssspBoth(g, root)
      assert(noRR.values == withRR.values, s"seed=$seed")
    }
  }

  test("SSSP starts in push mode from a single active root") {
    // A 25-edge chain: the root's one out-edge is 4% of |E|, below the switch.
    val g = TestUtil.graph(spark, (0L until 25L).map(i => (i, i + 1, 1.0)), chunks = 4)
    assert(g.outDeg(0L) <= Engine.DenseFraction * g.numEdges)
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Gemini)
    assert(r.stats.head.mode == "push")
  }

  test("CC starts in pull mode with all vertices active") {
    val g = figure1(spark).symmetrize
    val r = Engine.run(g, Apps.cc, Schedule.Gemini)
    assert(r.stats.head.mode == "pull")
  }

  test("RR run ends with a clean all-active push verification pass") {
    val g = figure1(spark)
    val rrg = RRGuidance.generate(g, Set(0L))
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Slfe(rrg))
    val lastStat = r.stats.last
    assert(lastStat.mode == "push" && lastStat.updates == 0)
  }

  test("delayed vertices are still computed: RR result covers all reachable vertices") {
    // A long chain hanging off the hub: its tail has a large lastIter and a
    // fast-converging remainder could otherwise strand it (the case the
    // verification push exists for).
    val chain = (0 until 8).map(i => (100L + i, 101L + i, 1.0))
    val g = TestUtil.graph(spark, Seq((0L, 100L, 1.0), (0L, 1L, 1.0)) ++ chain, chunks = 4)
    val rrg = RRGuidance.generate(g, Set(0L))
    val r = Engine.run(g, Apps.sssp(0L), Schedule.Slfe(rrg))
    assert(r.values(108L) == 9.0)
  }

  test("per-iteration computed vertices under RR never exceed the no-RR count") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(7, 300, 81))
    val root = g.maxOutDegVertex
    val (noRR, withRR) = ssspBoth(g, root)
    // Pull iterations without RR always compute every vertex; with RR the
    // ruler can only shrink that set.
    val noRRPullMax = noRR.stats.filter(_.mode == "pull").map(_.computedVertices)
    val rrPull = withRR.stats.filter(_.mode == "pull").map(_.computedVertices)
    if (noRRPullMax.nonEmpty && rrPull.nonEmpty)
      assert(rrPull.max <= noRRPullMax.max)
  }

  test("updates-per-vertex is at least ~1 for reachable-heavy graphs (Table 2 metric)") {
    val g = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(7, 300, 82))
    val (noRR, _) = ssspBoth(g, g.maxOutDegVertex)
    assert(noRR.updatesPerVertex(g.numVertices) > 0.0)
    assert(noRR.totalUpdates >= noRR.values.count(_._2 < 1e17) - 1) // every reached vertex updated >= once
  }

  test("engine fails loudly when maxIters is too small") {
    val g = figure1(spark)
    intercept[IllegalArgumentException] {
      Engine.run(g, Apps.sssp(0L), Schedule.Gemini, maxIters = 1)
    }
  }

  test("start late: SLFE pull iteration k computes exactly the vertices the guidance puts at lastIter k") {
    val g = PropertyGraph(spark, chunks = 3)(GraphGen.rmatEdges(8, 1200, 24))
    val sym = g.symmetrize
    val root = g.maxOutDegVertex
    for ((graph, prog, r) <- Seq((g, Apps.sssp(root, unitWeight = true), root), (g, Apps.wp(root), root),
                                 (sym, Apps.cc, sym.vertexIds(0)))) {
      val rrg = RRGuidance.generate(graph, Set(r))
      val perIter = graph.vertexIds.groupBy(rrg.lastIterOf).map { case (k, vs) => k -> vs.length.toLong }
      val pulls = Engine.run(graph, prog, Schedule.Slfe(rrg)).stats.filter(_.mode == "pull")
      assert(pulls.nonEmpty, prog.name)
      pulls.foreach(s => assert(s.computedVertices == perIter.getOrElse(s.iter, 0L), s"${prog.name} iteration ${s.iter}"))
    }
  }
}
