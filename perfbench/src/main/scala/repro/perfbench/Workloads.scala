package repro.perfbench

import repro.graph.GraphGen
import repro.graph.GraphGen.GraphSpec

/** One benchmark workload: every app on every graph, run by every system. */
final case class Workload(name: String, graphs: Seq[GraphSpec], apps: Seq[String]) {

  /** The same workload on graphs re-generated from `seed`; seed 0 keeps the
    * catalog RMAT seeds, so its counts are the ones EXPERIMENTS.md reports.
    */
  def withSeed(seed: Long): Workload = copy(graphs = graphs.map(s => s.copy(seed = s.seed + seed)))

  /** The same code paths on a tiny graph, for the smoke mode. */
  def tiny: Workload = copy(name = name + "-tiny",
    graphs = graphs.map(s => s.copy(name = s.name + "-tiny", scale = 9, targetEdges = 1500L)))
}

object Workloads {

  val Systems: Seq[String] = Seq("PowerG", "PowerL", "Gemini", "SLFE")

  private def catalog(name: String): GraphSpec = GraphGen.datasets.find(_.name == name).get

  /** A scale-17 RMAT graph (~81.6k vertices, 1.2M edges), 5x FS's edges:
    * the first point of a scale sweep beyond the Table 4 stand-ins.
    */
  val R17: GraphSpec = GraphSpec("R17", 17, 1200000L, 117, 0.0, 0.0, 1, "RMAT")

  /** Why each workload exists, and why only the first two are in
    * BENCHMARK.json, is recorded in perfbench/README.md.
    */
  val all: Seq[Workload] = Seq(
    Workload("minmax-small", Seq(catalog("PK"), catalog("FS")), Seq("SSSP", "CC", "WP")),
    Workload("arith-pk", Seq(catalog("PK")), Seq("PR", "TR")),
    Workload("arith-fs", Seq(catalog("FS")), Seq("PR", "TR")),
    Workload("minmax-large", Seq(R17), Seq("SSSP", "CC", "WP")),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
