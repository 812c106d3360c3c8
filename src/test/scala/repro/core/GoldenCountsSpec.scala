package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.apps.Apps
import repro.bench.Harness
import repro.graph.GraphGen.GraphSpec

/** Every engine's counts, pinned exactly. Each (graph, app, system) cell
  * runs through `Harness.prepare`/`Harness.run`, so roots, guidances, eps and
  * iteration caps are the benches' own, and its (iterations, edge
  * computations, vertex computations, updates) must equal the table below.
  * Counts are deterministic: min/max aggregates do not depend on order, and
  * each pull sum adds one destination's in-edges in a fixed order whatever
  * the chunk count. A refactor of the engines must leave every cell as is.
  * Table 2's weighted SSSP, which `Harness.run` does not run, is pinned
  * the same way, run as `Harness.table2` runs it.
  */
class GoldenCountsSpec extends AnyFunSuite {

  private val graphs = Seq(
    GraphSpec("G9", 9, 1500L, 301, 0.0, 0.0, 1, "RMAT"),
    GraphSpec("G8", 8, 700L, 302, 0.0, 0.0, 1, "RMAT"),
  )

  /** (graph, app, system) -> (iterations, edge comps, vertex comps, updates). */
  private val golden: Map[(String, String, String), (Int, Long, Long, Long)] = Map(
    ("G9", "SSSP", "PowerG") -> (5, 15000L, 1750L, 281L),
    ("G9", "SSSP", "PowerL") -> (5, 5635L, 546L, 281L),
    ("G9", "SSSP", "Gemini") -> (5, 7500L, 1686L, 281L),
    ("G9", "SSSP", "SLFE")   -> (9, 3401L, 806L, 281L),
    ("G9", "CC", "PowerG")   -> (4, 23888L, 1400L, 584L),
    ("G9", "CC", "PowerL")   -> (4, 12953L, 956L, 584L),
    ("G9", "CC", "Gemini")   -> (4, 11944L, 1400L, 584L),
    ("G9", "CC", "SLFE")     -> (6, 6607L, 868L, 538L),
    ("G9", "WP", "PowerG")   -> (8, 24000L, 2800L, 516L),
    ("G9", "WP", "PowerL")   -> (7, 9993L, 980L, 516L),
    ("G9", "WP", "Gemini")   -> (8, 9021L, 2057L, 516L),
    ("G9", "WP", "SLFE")     -> (12, 4376L, 1134L, 442L),
    ("G9", "PR", "PowerG")   -> (64, 192000L, 22400L, 13558L),
    ("G9", "PR", "PowerL")   -> (64, 170548L, 22400L, 13558L),
    ("G9", "PR", "Gemini")   -> (64, 96000L, 22400L, 13558L),
    ("G9", "PR", "SLFE")     -> (56, 80301L, 14448L, 13344L),
    ("G9", "TR", "PowerG")   -> (24, 72000L, 8400L, 5160L),
    ("G9", "TR", "PowerL")   -> (24, 63766L, 8400L, 5160L),
    ("G9", "TR", "Gemini")   -> (24, 36000L, 8400L, 5160L),
    ("G9", "TR", "SLFE")     -> (23, 33385L, 6237L, 5155L),
    ("G8", "SSSP", "PowerG") -> (5, 7000L, 930L, 149L),
    ("G8", "SSSP", "PowerL") -> (4, 2461L, 279L, 149L),
    ("G8", "SSSP", "Gemini") -> (5, 2800L, 713L, 149L),
    ("G8", "SSSP", "SLFE")   -> (8, 1567L, 414L, 149L),
    ("G8", "CC", "PowerG")   -> (4, 11024L, 744L, 296L),
    ("G8", "CC", "PowerL")   -> (4, 5818L, 495L, 296L),
    ("G8", "CC", "Gemini")   -> (4, 5512L, 744L, 296L),
    ("G8", "CC", "SLFE")     -> (6, 3028L, 452L, 266L),
    ("G8", "WP", "PowerG")   -> (12, 16800L, 2232L, 294L),
    ("G8", "WP", "PowerL")   -> (11, 6767L, 720L, 294L),
    ("G8", "WP", "Gemini")   -> (12, 7009L, 1838L, 294L),
    ("G8", "WP", "SLFE")     -> (16, 2509L, 855L, 293L),
    ("G8", "PR", "PowerG")   -> (58, 81200L, 10788L, 6808L),
    ("G8", "PR", "PowerL")   -> (58, 73265L, 10788L, 6808L),
    ("G8", "PR", "Gemini")   -> (58, 40600L, 10788L, 6808L),
    ("G8", "PR", "SLFE")     -> (53, 35301L, 7299L, 6723L),
    ("G8", "TR", "PowerG")   -> (22, 30800L, 4092L, 2671L),
    ("G8", "TR", "PowerL")   -> (22, 27944L, 4092L, 2671L),
    ("G8", "TR", "Gemini")   -> (22, 15400L, 4092L, 2671L),
    ("G8", "TR", "SLFE")     -> (22, 14928L, 3223L, 2670L),
  )

  /** Table 2's weighted SSSP, (graph, system) -> (iterations, edge comps,
    * vertex comps, updates).
    */
  private val goldenWeighted: Map[(String, String), (Int, Long, Long, Long)] = Map(
    ("G9", "PowerG") -> (7, 21000L, 2450L, 447L),
    ("G9", "PowerL") -> (7, 8306L, 804L, 447L),
    ("G9", "Gemini") -> (7, 9002L, 2038L, 447L),
    ("G9", "SLFE")   -> (10, 4046L, 1024L, 420L),
    ("G8", "PowerG") -> (7, 9800L, 1302L, 204L),
    ("G8", "PowerL") -> (6, 3475L, 390L, 204L),
    ("G8", "Gemini") -> (7, 4200L, 1085L, 204L),
    ("G8", "SLFE")   -> (10, 1690L, 476L, 179L),
  )

  private lazy val prepared = graphs.map(Harness.prepare(_))

  private def counts(r: RunResult): (Int, Long, Long, Long) =
    (r.iterations, r.totalComputations, r.totalVertexComputations, r.totalUpdates)

  private def assertGolden[K](got: Seq[(K, (Int, Long, Long, Long))], table: Map[K, (Int, Long, Long, Long)]): Unit = {
    assert(got.map(_._1).toSet == table.keySet)
    val diff = got.filterNot { case (k, v) => table(k) == v }
    if (diff.nonEmpty) fail("cells differ from the table:\n" + diff.map { case (k, v) =>
      s"$k: got $v, table ${table(k)}" }.mkString("\n"))
  }

  test("every engine reproduces its golden counts on every app") {
    assertGolden(prepared.flatMap { p =>
      for (app <- Seq("SSSP", "CC", "WP", "PR", "TR"); system <- Seq("PowerG", "PowerL", "Gemini", "SLFE"))
        yield (p.spec.name, app, system) -> counts(Harness.run(p, system, app))
    }, golden)
  }

  test("every engine reproduces its golden counts on Table 2's weighted SSSP") {
    assertGolden(prepared.flatMap { p =>
      Seq(Schedule.PowerG, Schedule.PowerL, Schedule.Gemini, Schedule.Slfe(p.rrgDir)).map { s =>
        (p.spec.name, s.name) -> counts(Engine.run(p.g, Apps.sssp(p.root), s))
      }
    }, goldenWeighted)
  }
}
