package repro.bench

import repro.graph.GraphGen.GraphSpec

/** A scale sweep beyond the Table 4 stand-ins: SSSP, CC and WP on locally
  * generated RMAT graphs of 2^15 to 2^19 vertex ids, about 9 edges per id,
  * run by every system after one untimed pass over the smallest graph.
  * Each scale first gives its set-up split: seconds to generate and lay
  * out the graph, to symmetrize it, and to generate both guidances. Each
  * row then gives a system's wall milliseconds (the median of [[Reps]]
  * runs), millions of edge computations and iterations, then SLFE's wall
  * time and computations over Gemini's. Run it alone with
  * `sbt -batch "bench/testOnly repro.bench.ScaleBench"`; the largest graph
  * has 4.8M edges.
  */
class ScaleBench extends BenchBase {

  private val systems = Seq("PowerG", "PowerL", "Gemini", "SLFE")
  private val apps = Seq("SSSP", "CC", "WP")
  private val Reps = 5

  private def spec(scale: Int): GraphSpec =
    GraphSpec(s"R$scale", scale, 1200000L << scale >> 17, 100L + scale, 0.0, 0.0, 1, "RMAT")

  test("Scale sweep: RMAT R15 to R19") {
    val warm = Harness.prepare(spec(15))
    for (app <- apps; system <- systems) Harness.run(warm, system, app)

    emit("== Scale sweep: wall ms / millions of edge computations / iterations ==")
    for (scale <- 15 to 19) {
      val (p, t) = Harness.prepareTimed(spec(scale))
      emit(s"-- R$scale (|V|=${p.g.numVertices}, |E|=${p.g.numEdges}, rrgMaxLevel=${p.rrgDir.maxLevel}) --")
      emit(f"setup generate+layout=${t.build}%.3fs symmetrize=${t.symmetrize}%.3fs RRG=${t.rrg}%.3fs")
      for (app <- apps) {
        val runs = systems.map(s => s -> Seq.fill(Reps)(Harness.run(p, s, app))).toMap
        def ms(s: String) = runs(s).map(_.wallNanos / 1e6).sorted.apply(Reps / 2)
        def comps(s: String) = runs(s).head.totalComputations.toDouble
        emit(f"$app%-5s " + systems.map(s =>
          f"$s=${ms(s)}%8.1fms/${comps(s) / 1e6}%7.3fM/${runs(s).head.iterations}%3dit").mkString(" ") +
          f"  SLFE/Gemini time=${ms("SLFE") / ms("Gemini")}%5.2f comps=${comps("SLFE") / comps("Gemini")}%5.2f")
      }
    }
  }
}
