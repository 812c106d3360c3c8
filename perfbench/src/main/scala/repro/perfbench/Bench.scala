package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.apps.Apps
import repro.bench.Harness
import repro.bench.Harness.Prepared
import repro.baseline.GasEngine
import repro.core.{EdgeOps, RRGuidance, RunResult, SlfeEngine}
import repro.graph.GraphGen
import repro.partition.Chunking

final case class Metric(name: String, value: Double, unit: String)

/** One timed (system, app, graph) execution of one pass, with its check. */
final case class CellRun(pass: Int, graph: String, numVertices: Long, app: String, system: String,
                         seconds: Double, result: Option[RunResult], error: Option[String]) {
  def ok: Boolean = error.isEmpty
}

/** What one benchmark run measured. */
final case class Outcome(endToEnd: Seq[Metric], perLayer: Seq[Metric], cells: Seq[CellRun]) {
  def attempted: Int = cells.size
  def failed: Int = cells.count(!_.ok)
}

/** Runs one workload: set-up repeated [[Bench.SetupReps]] times, then whole
  * passes over every (graph, app, system) cell through `Harness.run`, at
  * least one and as many as fit the measuring time. Each metric is the median over set-ups or
  * passes. Only calls into the program are timed; the program itself is not
  * instrumented.
  */
object Bench {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3

  /** Calls per `EdgeOps.aggregate` probe; the probe reports their median. */
  val ProbeReps = 7

  /** Untimed: every min/max cell once on a tiny graph, and a few iterations
    * of each arithmetic loop (a whole PR run takes ~80), so that the JIT and
    * Spark's generated code are warm before anything is timed. Each run
    * then times one warm pass instead of paying a whole cold one.
    */
  def warmUp(spark: SparkSession): Unit = {
    val wl = Workloads.all.head.tiny
    val p = prepare(spark, wl.graphs.head)
    for (app <- wl.apps; system <- Workloads.Systems) Harness.run(p, system, app)
    val pr = Apps.pagerank(eps = Harness.ArithEps)
    for (dense <- Seq(true, false)) GasEngine.runArith(p.g, pr, dense, iters = 3)
    for (rrg <- Seq(None, Some(p.rrgDir))) SlfeEngine.edgeProcArith(p.g, pr, rrg, iters = 3)
    release(p)
  }

  def run(spark: SparkSession, wl: Workload, seconds: Double, trace: Boolean,
          setupReps: Int = SetupReps): Outcome = {
    val counters = new SparkCounters
    if (trace) spark.sparkContext.addSparkListener(counters)
    try measure(spark, wl, seconds, trace, setupReps, counters)
    finally if (trace) spark.sparkContext.removeSparkListener(counters)
  }

  private def measure(spark: SparkSession, wl: Workload, seconds: Double, trace: Boolean,
                      setupReps: Int, counters: SparkCounters): Outcome = {
    val e2e = new Samples
    val layers = new Samples

    var prepared = Seq.empty[Prepared]
    for (_ <- 1 to setupReps) {
      prepared.foreach(release)
      val (ps, s) = timed(wl.graphs.map(spec =>
        if (trace) prepareTraced(spark, spec) else (prepare(spark, spec), SetupTimes.Zero)))
      prepared = ps.map(_._1)
      e2e.add("setup_s", "s", s)
      if (trace) {
        layers.add("traced.setup_s", "s", s)
        ps.map(_._2).reduce(_ + _).addTo(layers)
      }
    }

    val checks = prepared.map(p => p.spec.name -> new Checks(p)).toMap
    val cells = mutable.ArrayBuffer.empty[CellRun]
    val start = System.nanoTime()
    var pass = 0
    // Whole passes only: start another while it is expected to end in time.
    while (pass == 0 || since(start) * (pass + 1) / pass <= seconds) {
      pass += 1
      counters.settle()
      val before = (counters.snapshot, gcSeconds())
      val (runs, sweep) = timed(for {
        p <- prepared; app <- wl.apps; system <- Workloads.Systems
      } yield runCell(pass, p, app, system))
      counters.settle()
      val after = (counters.snapshot, gcSeconds())
      val (checked, checkS) = timed(runs.map(c =>
        c.result.flatMap(checks(c.graph)(c.app, _)).fold(c)(e => c.copy(error = Some(e)))))
      Console.err.println(f"pass $pass: swept in $sweep%.1fs, checked in $checkS%.1fs")
      cells ++= checked
      passMetrics(checked, sweep, e2e)
      if (trace) {
        layers.add("traced.sweep_s", "s", sweep)
        traceMetrics(checked, layers)
        val iters = checked.flatMap(_.result).map(_.iterations).sum
        val d = after._1.minus(before._1)
        layers.add("spark.jobs_per_iter", "count", ratio(d.jobs, iters))
        layers.add("spark.tasks", "count", d.tasks.toDouble)
        layers.add("spark.task_s", "s", d.taskMillis / 1e3)
        layers.add("spark.shuffle_bytes", "bytes", d.shuffleBytes.toDouble)
        layers.add("jvm.gc_s", "s", after._2 - before._2)
      }
    }
    e2e.add("live_heap_mb", "MB", liveHeapMb())
    if (trace) probe(prepared.last, wl.apps.exists(a => a == "PR" || a == "TR"), layers)
    prepared.foreach(release)
    Outcome(e2e.medians, layers.medians, cells.toSeq)
  }

  /** `Harness.prepare`, plus the in-memory maps the engines read, so that
    * no run pays for them.
    */
  private def prepare(spark: SparkSession, spec: GraphGen.GraphSpec): Prepared = {
    val p = Harness.prepare(spark, spec)
    forceMaps(p)
    p
  }

  private def forceMaps(p: Prepared): Unit =
    Seq(p.g, p.sym).foreach { g => g.numEdges; g.outDeg; g.outNbrs; () }

  /** [[prepare]] step by step, timing each layer's calls. It makes the same
    * calls as `Harness.prepare`, in the same order.
    */
  private def prepareTraced(spark: SparkSession, spec: GraphGen.GraphSpec): (Prepared, SetupTimes) = {
    val (g, build) = timed(GraphGen.build(spark, spec))
    val (sym, symmetrize) = timed(g.symmetrize.cached())
    val (root, maps0) = timed(g.maxOutDegVertex)
    val (rrgDir, rrg0) = timed(RRGuidance.generate(g, Set(root)))
    val (symRoot, maps1) = timed(sym.vertexIds.min)
    val (rrgSym, rrg1) = timed(RRGuidance.generate(sym, Set(symRoot)))
    val p = Prepared(spec, g, sym, root, rrgDir, rrgSym)
    val (_, maps2) = timed(forceMaps(p))
    // Alg. 1 runs one Spark job per BFS level, the last finding no new vertex.
    val rrgs = Seq(rrgDir, rrgSym)
    (p, SetupTimes(build, symmetrize, maps0 + maps1 + maps2, rrg0 + rrg1,
      rrgs.map(_.maxLevel + 1).sum, rrgs.map(_.edgeComputations).sum))
  }

  private def release(p: Prepared): Unit = { p.g.unpersist(); p.sym.unpersist() }

  /** One cell through the public harness. A throw, including an engine's
    * non-convergence `require`, fails the cell.
    */
  private def runCell(pass: Int, p: Prepared, app: String, system: String): CellRun = {
    val t0 = System.nanoTime()
    val (result, error) =
      try (Some(Harness.run(p, system, app)), None)
      catch { case NonFatal(e) => (None, Some(s"${e.getClass.getSimpleName}: ${e.getMessage}")) }
    CellRun(pass, p.spec.name, p.g.numVertices, app, system, since(t0), result, error)
  }

  private def passMetrics(cells: Seq[CellRun], sweep: Double, e2e: Samples): Unit = {
    e2e.add("sweep_s", "s", sweep)
    for (system <- Workloads.Systems) {
      val mine = cells.filter(_.system == system)
      val key = system.toLowerCase
      e2e.add(s"${key}_s", "s", mine.map(_.seconds).sum)
      e2e.add(s"${key}_comps", "count", mine.flatMap(_.result).map(_.totalComputations).sum.toDouble)
    }
  }

  private def traceMetrics(cells: Seq[CellRun], layers: Samples): Unit = {
    def isPush(mode: String) = mode == "push"
    for (system <- Workloads.Systems) {
      val mine = cells.filter(_.system == system)
      val results = mine.flatMap(_.result)
      val stats = results.flatMap(_.stats)
      val key = system.toLowerCase
      val iters = stats.size
      val vertexComps = stats.map(_.computedVertices).sum
      layers.add(s"$key.iters", "count", iters.toDouble)
      layers.add(s"$key.pull_iters", "count", stats.count(s => !isPush(s.mode)).toDouble)
      layers.add(s"$key.push_iters", "count", stats.count(s => isPush(s.mode)).toDouble)
      layers.add(s"$key.ms_per_iter", "ms", ratio(mine.map(_.seconds).sum * 1e3, iters))
      layers.add(s"$key.update_ratio", "ratio", ratio(stats.map(_.updates).sum, vertexComps))
      layers.add(s"$key.comps_per_vertex", "count", ratio(vertexComps, mine.map(_.numVertices).sum))
    }
    // Start-late and finish-early both act in SLFE's pull iterations: a
    // vertex not computed there is one RR skipped or froze.
    val slfePulls = cells.filter(_.system == "SLFE").flatMap(c =>
      c.result.toSeq.flatMap(_.stats).filterNot(s => isPush(s.mode)).map(s => (s.computedVertices, c.numVertices)))
    val scheduled = slfePulls.map(_._2).sum
    layers.add("slfe.skipped_share", "ratio", ratio(scheduled - slfePulls.map(_._1).sum, scheduled))
  }

  /** Direct calls into the edge and partition layers on the workload's
    * largest graph: the fixed per-call cost of `EdgeOps.aggregate` (one
    * source), its dense throughput (all sources, and all sources into the
    * largest `lastIter` bucket), and Gemini-style chunking.
    */
  private def probe(p: Prepared, arith: Boolean, layers: Samples): Unit = {
    val g = p.g
    val prog = if (arith) Apps.pagerank(eps = Harness.ArithEps) else Apps.sssp(p.root, unitWeight = true)
    val all = EdgeOps.initState(g, prog, None).toSeq.map(v => (v.id, v.value, v.outDeg))
    val one = all.filter(_._1 == p.root)
    val bucket = p.rrgDir.lastIter.groupBy(_._2).toSeq
      .maxBy { case (li, vs) => (vs.size, -li) }._2.keys.toSeq.sorted
    def ms(srcs: Seq[(Long, Double, Long)], dsts: Option[Seq[Long]]): Double =
      median((1 to ProbeReps).map(_ => timed(EdgeOps.aggregate(g, prog, srcs, dsts))._2 * 1e3))
    val allMs = ms(all, None)
    layers.add("edgeops.one_src_ms", "ms", ms(one, None))
    layers.add("edgeops.all_src_ms", "ms", allMs)
    layers.add("edgeops.filtered_pull_ms", "ms", ms(all, Some(bucket)))
    layers.add("edgeops.edges_per_s", "1/s", g.numEdges / (allMs / 1e3))
    val (chunks, chunking) = timed(Chunking.partition(g.vertexIds.toSeq, g.outDeg, parts = 8))
    layers.add("partition.chunking_s", "s", chunking)
    layers.add("partition.chunk_imbalance", "ratio", Chunking.imbalance(chunks))
  }

  private def liveHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).map { _ => mem.gc(); mem.getHeapMemoryUsage.getUsed / 1048576.0 }.min
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, since(t0))
  }

  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** Per-layer set-up cost of one or more graphs. */
private final case class SetupTimes(build: Double, symmetrize: Double, maps: Double, rrg: Double,
                                    rrgLevels: Int, rrgComps: Long) {
  def +(o: SetupTimes): SetupTimes = SetupTimes(build + o.build, symmetrize + o.symmetrize,
    maps + o.maps, rrg + o.rrg, rrgLevels + o.rrgLevels, rrgComps + o.rrgComps)

  def addTo(layers: Samples): Unit = {
    layers.add("graph.build_s", "s", build)
    layers.add("graph.symmetrize_s", "s", symmetrize)
    layers.add("graph.maps_s", "s", maps)
    layers.add("rrg.generate_s", "s", rrg)
    layers.add("rrg.levels", "count", rrgLevels.toDouble)
    layers.add("rrg.s_per_level", "s", rrg / rrgLevels)
    layers.add("rrg.edge_comps", "count", rrgComps.toDouble)
  }
}

private object SetupTimes {
  val Zero: SetupTimes = SetupTimes(0, 0, 0, 0, 0, 0)
}

/** Named samples; each metric reports the median of its samples. */
private final class Samples {
  private val samples = mutable.LinkedHashMap.empty[String, (String, mutable.ArrayBuffer[Double])]

  def add(name: String, unit: String, v: Double): Unit =
    samples.getOrElseUpdate(name, (unit, mutable.ArrayBuffer.empty))._2 += v

  def medians: Seq[Metric] =
    samples.iterator.map { case (n, (u, vs)) => Metric(n, Bench.median(vs.toSeq), u) }.toSeq
}

/** Spark work seen through a listener the benchmark registers. */
private final class SparkCounters extends SparkListener {
  private val jobs, tasks, taskMillis, shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      taskMillis.addAndGet(m.executorRunTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot: SparkCounters.Snap = SparkCounters.Snap(jobs.get, tasks.get, taskMillis.get, shuffleBytes.get)

  /** Listener events arrive asynchronously: wait until they stop coming. */
  def settle(): Unit = {
    var last = snapshot
    Thread.sleep(50)
    while (snapshot != last) { last = snapshot; Thread.sleep(50) }
  }
}

private object SparkCounters {
  final case class Snap(jobs: Long, tasks: Long, taskMillis: Long, shuffleBytes: Long) {
    def minus(o: Snap): Snap = Snap(jobs - o.jobs, tasks - o.tasks, taskMillis - o.taskMillis, shuffleBytes - o.shuffleBytes)
  }
}
