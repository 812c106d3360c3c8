package repro.core

import java.util.BitSet
import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import repro.graph.{EdgeBlock, EdgeLayout, PropertyGraph, VertexMap}

/** One vertex's mutable state during an engine run. */
final case class VState(
    id: Long,
    value: Double,
    active: Boolean,
    stableCnt: Int,
    lastIter: Int,
    outDeg: Long,
)

/** What one aggregation delivered, over the graph's dense vertex index:
  * `count(i)` edges sent vertex `i` a message and `agg(i)` combines them.
  * `agg(i)` is meaningful only where `count(i) > 0`.
  */
final class Messages(val agg: Array[Double], val count: Array[Int]) {
  def received(i: Int): Boolean = count(i) > 0

  /** Edges processed, the paper's computation count. */
  def edges: Long = count.foldLeft(0L)(_ + _)

  /** Vertices that received at least one message. */
  def receivers: Int = count.count(_ > 0)
}

/** The edge half of every engine: messages over the graph's partitioned
  * edge blocks ([[repro.graph.EdgeLayout]]), combined per destination. As in
  * Gemini's single-node runtime, each call runs one task per chunk on a
  * fixed in-process worker pool and waits for all of them. Pull walks the
  * CSC in-edges of the selected destinations; push walks the CSR out-edges
  * of the active sources, as in Gemini's dense and sparse modes. Each chunk
  * returns dense arrays over its own destination range, and the caller lays
  * them side by side in chunk order. No Spark job runs, so the edge passes
  * run in the calling JVM whatever the Spark master.
  */
private[repro] object EdgeOps {

  /** One chunk's share of an aggregation; null arrays when it processed no edge. */
  private final case class Partial(lo: Int, agg: Array[Double], count: Array[Int])

  private var pool: ExecutorService = _

  /** The worker pool, created on first use with as many daemon threads as
    * the Spark context's default parallelism (`local[n]` sets it to n).
    */
  private def workers(g: PropertyGraph): ExecutorService = synchronized {
    if (pool == null) {
      val n = g.spark.sparkContext.defaultParallelism.max(1)
      pool = Executors.newFixedThreadPool(n, (r: Runnable) => {
        val t = new Thread(r, "edgeops-worker")
        t.setDaemon(true)
        t
      })
    }
    pool
  }

  /** `task` on every block, one pool task each; the partials in chunk order.
    * A failing task fails the call with its own exception.
    */
  private def perChunk(g: PropertyGraph, l: EdgeLayout)(task: EdgeBlock => Partial): Messages = {
    val pool = workers(g)
    val futures = l.blocks.map(b => pool.submit(new Callable[Partial] { def call(): Partial = task(b) }))
    val parts =
      try futures.map(_.get)
      catch { case e: ExecutionException => futures.foreach(_.cancel(true)); throw e.getCause }
    assemble(l.numVertices, parts)
  }

  /** Pull: each destination in `dsts` (None: all) gathers over its in-edges
    * from the sources in `srcs` (None: all), reading source values from the
    * dense `values`.
    */
  def pull(g: PropertyGraph, prog: VertexProgram, values: Array[Double],
           dsts: Option[BitSet], srcs: Option[BitSet] = None): Messages = {
    val l = g.layout
    require(values.length == l.numVertices)
    if (dsts.exists(_.isEmpty) || srcs.exists(_.isEmpty)) return none(l.numVertices)
    val (msg, agg, d, s) = (prog.msg, prog.agg, dsts.orNull, srcs.orNull)
    perChunk(g, l)(pullBlock(_, msg, agg, values, d, s))
  }

  /** Push: the sources `srcs` (dense indices) send their value in `values`
    * over all their out-edges.
    */
  def push(g: PropertyGraph, prog: VertexProgram, values: Array[Double], srcs: Array[Int]): Messages = {
    val l = g.layout
    require(values.length == l.numVertices)
    if (srcs.isEmpty) return none(l.numVertices)
    val (msg, agg, sv) = (prog.msg, prog.agg, srcs.map(values))
    perChunk(g, l)(pushBlock(_, msg, agg, srcs, sv))
  }

  /** Aggregate messages into destinations, by vertex id.
    *
    * @param srcs (id, value, outDeg) of message sources; `outDeg` must be
    *             the graph's out-degree
    * @param dsts destinations to compute, or None for "all destinations"
    * @return per-destination (aggregatedMessage, edgesProcessed), for the
    *         destinations that received a message
    */
  def aggregate(g: PropertyGraph, prog: VertexProgram,
                srcs: Seq[(Long, Double, Long)],
                dsts: Option[Seq[Long]]): Map[Long, (Double, Long)] = {
    val l = g.layout
    val n = l.numVertices
    val values = new Array[Double](n)
    val srcSet = new BitSet(n)
    srcs.foreach { case (id, v, deg) =>
      val i = l.indexOf(id)
      if (i >= 0) {
        require(deg == l.outDeg(i), s"vertex $id: outDeg $deg given, ${l.outDeg(i)} in the graph")
        values(i) = v; srcSet.set(i)
      }
    }
    val dstSet = dsts.map { ids =>
      val b = new BitSet(n)
      ids.iterator.map(l.indexOf).filter(_ >= 0).foreach(b.set)
      b
    }
    val allSrcs = srcSet.cardinality == n
    val m =
      if (dsts.isEmpty && !allSrcs) push(g, prog, values, srcSet.stream.toArray)
      else pull(g, prog, values, dstSet, if (allSrcs) None else Some(srcSet))
    new VertexMap(l.ids, i => (m.agg(i), m.count(i).toLong), m.received)
  }

  /** Initial engine state for a program over a graph, with RRG attached
    * (lastIter = 0 everywhere when no guidance is used).
    */
  def initState(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance]): Array[VState] = {
    val l = g.layout
    Array.tabulate(l.numVertices) { i =>
      val v = l.ids(i)
      VState(v, prog.initValue(v), prog.initActive(v), 0,
        rrg.map(_.lastIterOf(v)).getOrElse(0), l.outDeg(i).toLong)
    }
  }

  private def none(n: Int): Messages = new Messages(new Array[Double](n), new Array[Int](n))

  private def assemble(n: Int, parts: Array[Partial]): Messages = {
    val m = none(n)
    parts.foreach { p =>
      if (p.agg != null) {
        System.arraycopy(p.agg, 0, m.agg, p.lo, p.agg.length)
        System.arraycopy(p.count, 0, m.count, p.lo, p.count.length)
      }
    }
    m
  }

  private def pullBlock(b: EdgeBlock, msg: Message, agg: AggKind, values: Array[Double],
                        dsts: BitSet, srcs: BitSet): Partial = {
    var acc: Array[Double] = null
    var cnt: Array[Int] = null
    var d = if (dsts == null) b.lo else dsts.nextSetBit(b.lo)
    while (d >= 0 && d < b.hi) {
      val j = d - b.lo
      var a = agg.zero
      var c = 0
      var e = b.inOff(j)
      val end = b.inOff(j + 1)
      while (e < end) {
        val s = b.inSrc(e)
        if (srcs == null || srcs.get(s)) {
          a = agg.combine(a, msg(values(s), b.inW(e), b.outDeg(s)))
          c += 1
        }
        e += 1
      }
      if (c > 0) {
        if (acc == null) { acc = new Array[Double](b.hi - b.lo); cnt = new Array[Int](b.hi - b.lo) }
        acc(j) = a
        cnt(j) = c
      }
      d = if (dsts == null) d + 1 else dsts.nextSetBit(d + 1)
    }
    Partial(b.lo, acc, cnt)
  }

  private def pushBlock(b: EdgeBlock, msg: Message, agg: AggKind, srcs: Array[Int],
                        srcVals: Array[Double]): Partial = {
    var acc: Array[Double] = null
    var cnt: Array[Int] = null
    var k = 0
    while (k < srcs.length) {
      val s = srcs(k)
      var e = b.outOff(s)
      val end = b.outOff(s + 1)
      if (e < end && acc == null) {
        acc = Array.fill(b.hi - b.lo)(agg.zero)
        cnt = new Array[Int](b.hi - b.lo)
      }
      while (e < end) {
        val j = b.outDst(e) - b.lo
        acc(j) = agg.combine(acc(j), msg(srcVals(k), b.outW(e), b.outDeg(s)))
        cnt(j) += 1
        e += 1
      }
      k += 1
    }
    Partial(b.lo, acc, cnt)
  }
}
