package repro.bench

import org.apache.spark.sql.SparkSession
import repro.apps.Apps
import repro.core._
import repro.graph.{GraphGen, PropertyGraph}
import repro.partition.Replication
import repro.sched.WorkStealing

/** Shared runners and printers for the evaluation tables; each table's bench
  * suite (bench/src/test) delegates here.
  */
object Harness {

  /** Iteration cap for the arithmetic apps — they run to convergence at
    * [[ArithEps]] stability and the tables report *per-iteration* cost, as
    * the paper does for PR/TR.
    */
  val ArithIters = 120

  /** Stability epsilon for PR/TR in the benches: ~float32 precision, the
    * paper's own argument for why vertex properties stop changing ("the
    * precision supported by the underlying hardware cannot reveal the
    * changes", §2.2).
    */
  val ArithEps = 1e-6

  /** Everything derived once per dataset and shared across systems/apps. */
  final case class Prepared(spec: GraphGen.GraphSpec, g: PropertyGraph, sym: PropertyGraph,
                            root: Long, rrgDir: RRGuidance, rrgSym: RRGuidance)

  /** Seconds of one set-up's steps: generating and laying out the graph,
    * symmetrizing it, and generating both guidances.
    */
  final case class SetupTimes(build: Double, symmetrize: Double, rrg: Double)

  def prepare(spec: GraphGen.GraphSpec): Prepared = prepareTimed(spec)._1

  /** [[prepare]], ignoring the session. Kept only because perfbench calls it. */
  def prepare(spark: SparkSession, spec: GraphGen.GraphSpec): Prepared = prepare(spec)

  /** [[prepare]], timing its steps. */
  def prepareTimed(spec: GraphGen.GraphSpec): (Prepared, SetupTimes) = {
    def timed[A](body: => A): (A, Double) = {
      val t0 = System.nanoTime()
      val a = body
      (a, (System.nanoTime() - t0) / 1e9)
    }
    // Both graphs are generated, symmetrized and laid out in memory, so
    // set-up pays for the engines' edge blocks. Each graph keeps only its
    // layout; oracles that read `edges` get a view of its edge list.
    val (g, build) = timed(GraphGen.build(spec))
    val (sym, symmetrize) = timed(g.symmetrize)
    // One guidance per traversal graph, generated once and reused by every
    // application on it (the paper's reuse story, §4.4 footnote 4).
    val ((root, rrgDir, rrgSym), rrg) = timed {
      val root = g.maxOutDegVertex
      (root, RRGuidance.generate(g, Set(root)), RRGuidance.generate(sym, Set(sym.vertexIds(0)))) // ids ascend
    }
    (Prepared(spec, g, sym, root, rrgDir, rrgSym), SetupTimes(build, symmetrize, rrg))
  }

  /** The schedule of `system` (PowerG, PowerL, Gemini or SLFE), SLFE guided by `rrg`. */
  private def schedule(system: String, rrg: RRGuidance): Schedule = system match {
    case "PowerG" => Schedule.PowerG
    case "PowerL" => Schedule.PowerL
    case "Gemini" => Schedule.Gemini
    case "SLFE"   => Schedule.Slfe(rrg)
  }

  /** The program of `app` (SSSP, CC, WP, PR or TR) as the tables run it. */
  private def program(app: String, root: Long): VertexProgram = app match {
    case "SSSP" => Apps.sssp(root, unitWeight = true) // evaluation graphs are unweighted
    case "CC"   => Apps.cc
    case "WP"   => Apps.wp(root)
    case "PR"   => Apps.pagerank(eps = ArithEps)
    case "TR"   => Apps.tunkrank(eps = ArithEps)
  }

  /** Run one (system, app) on a prepared dataset. */
  def run(p: Prepared, system: String, app: String): RunResult = {
    val prog = program(app, p.root)
    val (graph, rrg) = if (app == "CC") (p.sym, p.rrgSym) else (p.g, p.rrgDir)
    Engine.run(graph, prog, schedule(system, rrg), if (prog.arith) ArithIters else Engine.MaxIters)
  }

  /** Table 4: dataset statistics — paper's graphs vs the scaled stand-ins. */
  def table4(specs: Seq[GraphGen.GraphSpec], out: String => Unit): Unit = {
    out("== Table 4: graph datasets (paper vs scaled stand-in) ==")
    out(f"${"Graph"}%-6s ${"paper|V|"}%10s ${"paper|E|"}%10s ${"div"}%6s ${"|V|"}%8s ${"|E|"}%9s ${"AvgDeg"}%7s  Type")
    specs.foreach { spec =>
      val g = GraphGen.build(spec)
      val avg = g.numEdges.toDouble / g.numVertices
      out(f"${spec.name}%-6s ${spec.paperVertices}%10d ${spec.paperEdges}%10d ${spec.divisor}%6d " +
        f"${g.numVertices}%8d ${g.numEdges}%9d ${avg}%7.1f  ${spec.kind}")
    }
  }

  /** Table 2: per-vertex computation counts of *weighted* SSSP (generic edge
    * weights exercise the repeated relaxations the paper measures in
    * PowerLyra and Gemini; ideal is 1). PowerG and SLFE appended for
    * contrast.
    */
  def table2(specs: Seq[GraphGen.GraphSpec], out: String => Unit): Unit = {
    out("== Table 2: SSSP computations per vertex (ideal = 1) ==")
    out(f"${"System"}%-10s " + specs.map(s => f"${s.name}%7s").mkString(" "))
    val prepared = specs.map(prepare(_))
    for (system <- Seq("PowerG", "PowerL", "Gemini", "SLFE")) {
      val row = prepared.map { p =>
        val r = Engine.run(p.g, Apps.sssp(p.root), schedule(system, p.rrgDir)) // weighted
        f"${r.computationsPerVertex(p.g.numVertices)}%7.2f"
      }
      out(f"$system%-10s " + row.mkString(" "))
    }
  }

  /** Table 5: all systems x apps x graphs. Primary metric: edge
    * computations (substrate-independent); wall seconds appended.
    */
  def table5(specs: Seq[GraphGen.GraphSpec], out: String => Unit): Unit = {
    val systems = Seq("PowerG", "PowerL", "Gemini", "SLFE")
    val apps = Seq("SSSP", "CC", "WP", "PR", "TR")
    out("== Table 5: millions of edge computations; milliseconds and iterations in parens ==")
    out("   (SSSP/CC/WP: total to convergence; PR/TR: per-iteration, as in the paper)")
    val speedupsG = scala.collection.mutable.ArrayBuffer.empty[Double]
    val speedupsL = scala.collection.mutable.ArrayBuffer.empty[Double]
    for (spec <- specs) {
      val p = prepare(spec)
      out(s"-- ${spec.name} (|V|=${p.g.numVertices}, |E|=${p.g.numEdges}, root=${p.root}, " +
        s"rrgMaxLevel=${p.rrgDir.maxLevel}) --")
      for (app <- apps) {
        val perIteration = program(app, p.root).arith
        val runs = systems.map(s => run(p, s, app))
        // Arithmetic runs converge in different iteration counts, so compare
        // per-iteration cost (the paper's Table 5 reports per-iteration
        // runtime for PR/TR); min/max apps compare run totals.
        def metric(r: RunResult): Double =
          if (perIteration) r.totalComputations.toDouble / math.max(r.iterations, 1) else r.totalComputations.toDouble
        val bySystem = runs.map(r => r.system -> r).toMap
        val slfe = math.max(metric(bySystem("SLFE")), 1.0)
        val supG = metric(bySystem("PowerG")) / slfe
        val supL = metric(bySystem("PowerL")) / slfe
        speedupsG += supG; speedupsL += supL
        out(f"$app%-5s " + runs.map(r =>
          f"${r.system}=${metric(r) / 1e6}%8.4fM(${r.seconds * 1e3}%8.2fms,${r.iterations}%3dit)").mkString(" ") +
          f"  speedup vs PowerG=${supG}%6.2fx vs PowerL=${supL}%6.2fx")
      }
    }
    def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
    out(f"GEOMEAN speedup (computations): vs PowerG=${geomean(speedupsG.toSeq)}%.2fx " +
      f"vs PowerL=${geomean(speedupsL.toSeq)}%.2fx")
  }

  /** Fig. 8 companion: RRG preprocessing cost next to SSSP execution.
    * `end2end` charges the full RRG cost to this single SSSP job;
    * `amortized` spreads it over the paper's reported 8.7 jobs per graph
    * (§4.4 footnote 4 — the guidance is reused across applications).
    */
  def overhead(specs: Seq[GraphGen.GraphSpec], out: String => Unit): Unit = {
    out("== Preprocessing overhead (RRG generation vs SSSP computations) ==")
    out(f"${"Graph"}%-6s ${"rrgComps"}%10s ${"rrgMs"}%8s ${"geminiSSSP"}%12s ${"slfeSSSP"}%10s ${"end2end"}%8s ${"amortized"}%10s")
    for (spec <- specs) {
      val p = prepare(spec)
      val gem = run(p, "Gemini", "SSSP")
      val slfe = run(p, "SLFE", "SSSP")
      val gemC = math.max(gem.totalComputations, 1L).toDouble
      val endToEnd = (p.rrgDir.edgeComputations + slfe.totalComputations) / gemC
      val amortized = (p.rrgDir.edgeComputations / 8.7 + slfe.totalComputations) / gemC
      out(f"${spec.name}%-6s ${p.rrgDir.edgeComputations}%10d ${p.rrgDir.wallNanos / 1e6}%8.2f " +
        f"${gem.totalComputations}%12d ${slfe.totalComputations}%10d ${endToEnd}%8.2f ${amortized}%10.2f")
    }
  }

  /** Fig. 10 companion: work-stealing makespans on RR-skewed per-vertex
    * loads, and chunking/replication comparisons.
    */
  def balance(specs: Seq[GraphGen.GraphSpec], out: String => Unit): Unit = {
    out("== Balance: work stealing on RR-skewed loads; partitioning factors ==")
    for (spec <- specs) {
      val p = prepare(spec)
      // Per-vertex load under RR: vertices start at lastIter, so early-start
      // vertices do more pull work — the skew stealing has to absorb.
      val l = p.g.layout
      val lastIter = p.rrgDir.rulers(p.g).lastIter
      val loads = Seq.tabulate(l.numVertices) { i =>
        (p.rrgDir.maxLevel + 1 - math.min(lastIter(i), p.rrgDir.maxLevel)) * math.max(l.inDeg(i), 1).toLong
      }
      val costs = WorkStealing.chunkCosts(loads)
      val static = WorkStealing.staticSchedule(costs, threads = 8)
      val steal = WorkStealing.stealingSchedule(costs, threads = 8)
      // In-edge imbalance (max over mean) of the chunks the engines run:
      // the layout's blocks, cut by in-degree.
      val chunkEdges = p.g.layout.blocks.map(_.numEdges.toDouble)
      val chunkImb = chunkEdges.max / (chunkEdges.sum / chunkEdges.length)
      val rfG = Replication.randomVertexCut(p.g, 8)
      val rfL = Replication.hybridCut(p.g, 8, threshold = 4 * p.g.numEdges / math.max(p.g.numVertices, 1))
      out(f"${spec.name}%-6s staticImb=${static.imbalance}%5.2f stealImb=${steal.imbalance}%5.2f " +
        f"steals=${steal.steals}%4d chunkImb=${chunkImb}%5.2f " +
        f"rf(PowerG)=${rfG}%5.2f rf(PowerL)=${rfL}%5.2f")
    }
  }
}
