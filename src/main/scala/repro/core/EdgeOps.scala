package repro.core

import java.util.BitSet
import java.util.concurrent.{CountDownLatch, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import repro.graph.{EdgeBlock, EdgeLayout, PropertyGraph, VertexMap}

/** One vertex's initial state for a program, by id, as [[EdgeOps.initState]]
  * lists it for callers that probe the edge layer vertex by vertex. The
  * engine keeps dense arrays instead ([[Engine]]).
  */
final case class VState(
    id: Long,
    value: Double,
    active: Boolean,
    lastIter: Int,
    outDeg: Long,
)

/** What one aggregation delivered, over the graph's dense vertex index:
  * `count(i)` edges sent vertex `i` a message and `agg(i)` combines them.
  * `agg(i)` is meaningful only where `count(i) > 0`. The vertices that
  * received a message are listed too, so a caller can walk them alone.
  *
  * One buffer serves a whole run: each call first clears the receivers of
  * the call before, so reusing it costs the frontier, not `n`.
  */
final class Messages(n: Int) {
  val agg = new Array[Double](n)
  val count = new Array[Int](n)
  // Receivers: recv(0 until numRecv) once a call is done. While it runs,
  // the chunk with destination range [lo, hi) lists its own from recv(lo).
  private[core] val recv = new Array[Int](n)
  private var numRecv = 0
  private var numEdges = 0L

  def received(i: Int): Boolean = count(i) > 0

  /** Edges processed, the paper's computation count. */
  def edges: Long = numEdges

  /** Vertices that received at least one message. */
  def receivers: Int = numRecv

  /** The `k`-th receiver, `0 <= k < receivers`; a push lists each chunk's
    * in the order its first message arrived.
    */
  def receiver(k: Int): Int = recv(k)

  /** Forgets the last call's messages. */
  private[core] def clear(): Unit = {
    var k = 0
    while (k < numRecv) { count(recv(k)) = 0; k += 1 }
    numRecv = 0
    numEdges = 0L
  }

  /** Forgets every message, after a call that failed part way. */
  private[core] def wipe(): Unit = {
    java.util.Arrays.fill(count, 0)
    numRecv = 0
    numEdges = 0L
  }

  /** Joins the chunks' receiver lists, chunk `c` having listed `ends(c) -
    * starts(c)` of them from `recv(starts(c))`, into one list.
    */
  private[core] def finish(starts: Array[Int], ends: Array[Int], edges: Long): Unit = {
    var k = 0
    for (c <- ends.indices) {
      val len = ends(c) - starts(c)
      System.arraycopy(recv, starts(c), recv, k, len)
      k += len
    }
    numRecv = k
    numEdges = edges
  }
}

/** The edge half of every engine: messages over the graph's partitioned
  * edge blocks ([[repro.graph.EdgeLayout]]), combined per destination. As in
  * Gemini's single-node runtime, a call runs one task per chunk: the caller
  * and up to `availableProcessors - 1` threads of a fixed in-process pool
  * claim chunks from one counter until none is left, and the caller waits
  * for the ones still running. Pull walks the CSC in-edges of the selected
  * destinations; push walks the CSR out-edges of the active sources, as in
  * Gemini's dense and sparse modes. Chunks own disjoint destination ranges,
  * so each one writes its aggregates, counts and receivers straight into the
  * call's [[Messages]].
  */
private[repro] object EdgeOps {

  /** Threads that run one call's chunk tasks, the caller included: one per
    * processor, as Spark's `local[*]` master counts them.
    */
  private val Threads = Runtime.getRuntime.availableProcessors

  /** The caller's helpers: daemon threads, one fewer than [[Threads]]. */
  private val workers = Executors.newFixedThreadPool((Threads - 1).max(1), (r: Runnable) => {
    val t = new Thread(r, "edgeops-worker")
    t.setDaemon(true)
    t
  })

  /** One call's chunk tasks. `run` claims chunks until none is left; the
    * task of chunk `c` returns its edge count and sets `ends(c)` to where its
    * receiver list ends. After the first failure the remaining chunks are
    * claimed but not run.
    */
  private final class Chunks(blocks: Array[EdgeBlock], task: (EdgeBlock, Array[Int], Int) => Long)
      extends Runnable {
    val ends = new Array[Int](blocks.length)
    private val edges = new Array[Long](blocks.length)
    private val next = new AtomicInteger
    private val done = new CountDownLatch(blocks.length)
    private val failure = new AtomicReference[Throwable]

    def run(): Unit = {
      var c = next.getAndIncrement()
      while (c < blocks.length) {
        try if (failure.get == null) edges(c) = task(blocks(c), ends, c)
        catch { case t: Throwable => failure.compareAndSet(null, t) }
        finally done.countDown()
        c = next.getAndIncrement()
      }
    }

    /** Waits for every chunk; their total edge count, or the first failure. */
    def await(): Long = {
      done.await()
      val t = failure.get
      if (t != null) throw t
      var sum = 0L
      for (e <- edges) sum += e
      sum
    }
  }

  /** `task` on every block into `m`, which it clears first. A failing task
    * fails the call with its own exception and leaves `m` empty.
    */
  private def perChunk(l: EdgeLayout, m: Messages)(task: (EdgeBlock, Array[Int], Int) => Long): Messages = {
    m.clear()
    val chunks = new Chunks(l.blocks, task)
    for (_ <- 1 until Threads.min(l.numChunks)) workers.execute(chunks)
    chunks.run()
    val edges =
      try chunks.await()
      catch { case t: Throwable => m.wipe(); throw t }
    m.finish(l.chunkStarts, chunks.ends, edges)
    m
  }

  private def buffer(l: EdgeLayout, into: Messages): Messages =
    if (into == null) new Messages(l.numVertices)
    else {
      require(into.count.length == l.numVertices,
        s"a buffer of ${into.count.length} vertices for a graph of ${l.numVertices}")
      into
    }

  /** Pull: each destination in `dsts` (None: all) gathers over all its
    * in-edges, reading source values from the dense `values`. The result
    * goes to `into`, cleared first, if given.
    */
  def pull(g: PropertyGraph, prog: VertexProgram, values: Array[Double],
           dsts: Option[BitSet], into: Messages = null): Messages = {
    val l = g.layout
    require(values.length == l.numVertices)
    val m = buffer(l, into)
    if (dsts.exists(_.isEmpty)) return none(m)
    val (msg, agg, d) = (prog.msg, prog.agg, dsts.orNull)
    perChunk(l, m)(pullBlock(_, _, _, msg, agg, values, d, m))
  }

  /** Push: the sources `srcs` (dense indices) send their value in `values`
    * over all their out-edges. The result goes to `into`, cleared first, if
    * given.
    */
  def push(g: PropertyGraph, prog: VertexProgram, values: Array[Double], srcs: Array[Int],
           into: Messages = null): Messages = {
    val l = g.layout
    require(values.length == l.numVertices)
    val m = buffer(l, into)
    if (srcs.isEmpty) return none(m)
    val (msg, agg) = (prog.msg, prog.agg)
    perChunk(l, m)(pushBlock(_, _, _, msg, agg, values, srcs, m))
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
    // Every source: pull the destinations. Some sources: push from them, then
    // keep the destinations asked for.
    val (m, keep) =
      if (srcSet.cardinality == n) (pull(g, prog, values, dstSet), None)
      else (push(g, prog, values, srcSet.stream.toArray), dstSet)
    new VertexMap(l.ids, i => (m.agg(i), m.count(i).toLong), i => m.received(i) && keep.forall(_.get(i)))
  }

  /** Every vertex's initial state for a program over a graph, with RRG
    * attached (lastIter = 0 everywhere when no guidance is used).
    */
  def initState(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance]): Array[VState] = {
    val l = g.layout
    val lastIter = rrg.map(_.rulers(g).lastIter)
    Array.tabulate(l.numVertices) { i =>
      val v = l.ids(i)
      VState(v, prog.initValue(v), prog.initActive(v), lastIter.fold(0)(_(i)), l.outDeg(i).toLong)
    }
  }

  private def none(m: Messages): Messages = { m.clear(); m }

  private def pullBlock(b: EdgeBlock, ends: Array[Int], c: Int, msg: Message, agg: AggKind,
                        values: Array[Double], dsts: BitSet, m: Messages): Long = {
    val (acc, cnt, recv) = (m.agg, m.count, m.recv)
    var k = b.lo
    var edges = 0L
    var d = if (dsts == null) b.lo else dsts.nextSetBit(b.lo)
    while (d >= 0 && d < b.hi) {
      val j = d - b.lo
      var a = agg.zero
      var e = b.inOff(j)
      val end = b.inOff(j + 1)
      val n = end - e
      while (e < end) {
        val s = b.inSrc(e)
        a = agg.combine(a, msg(values(s), b.inW(e), b.outDeg(s)))
        e += 1
      }
      if (n > 0) {
        acc(d) = a
        cnt(d) = n
        recv(k) = d
        k += 1
        edges += n
      }
      d = if (dsts == null) d + 1 else dsts.nextSetBit(d + 1)
    }
    ends(c) = k
    edges
  }

  private def pushBlock(b: EdgeBlock, ends: Array[Int], c: Int, msg: Message, agg: AggKind,
                        values: Array[Double], srcs: Array[Int], m: Messages): Long = {
    val (acc, cnt, recv) = (m.agg, m.count, m.recv)
    var k = b.lo
    var edges = 0L
    var i = 0
    while (i < srcs.length) {
      val s = srcs(i)
      val v = values(s)
      var e = b.outOff(s)
      val end = b.outOff(s + 1)
      edges += end - e
      while (e < end) {
        val d = b.outDst(e)
        val x = msg(v, b.outW(e), b.outDeg(s))
        if (cnt(d) == 0) {
          acc(d) = agg.combine(agg.zero, x)
          recv(k) = d
          k += 1
        } else acc(d) = agg.combine(acc(d), x)
        cnt(d) += 1
        e += 1
      }
      i += 1
    }
    ends(c) = k
    edges
  }
}
