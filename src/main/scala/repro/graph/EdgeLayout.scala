package repro.graph

import repro.partition.Chunking

/** The in-edges of one destination chunk, the dense vertex range
  * `[lo, hi)`, stored twice as in Gemini (Zhu et al., OSDI 2016):
  *
  *  - CSC, for pull: destination `d`'s in-edges are positions
  *    `inOff(d - lo) until inOff(d - lo + 1)` of `inSrc`/`inW`, sources
  *    ascending;
  *  - CSR, for push: source `s`'s out-edges into this chunk are positions
  *    `outOff(s) until outOff(s + 1)` of `outDst`/`outW`, destinations
  *    ascending. `outOff` spans every source of the graph.
  *
  * `outDeg` is the whole graph's out-degree array, which messages read
  * (PageRank divides by it); every block of a layout shares the one array.
  */
final class EdgeBlock(
    val lo: Int,
    val hi: Int,
    val inOff: Array[Int],
    val inSrc: Array[Int],
    val inW: Array[Double],
    val outOff: Array[Int],
    val outDst: Array[Int],
    val outW: Array[Double],
    val outDeg: Array[Int],
) {
  def numEdges: Int = inSrc.length
}

/** A graph's edges laid out once for the engines, in local memory: the
  * dense index `0..n-1` over the ascending vertex ids, the degree arrays, the
  * out-adjacency in CSR form (`adjOff`/`adjDst`, for the bookkeeping of
  * PowerL's signal sets), and one [[EdgeBlock]] per destination chunk,
  * chunks cut by `partition.Chunking` so that their in-edge counts balance.
  * Every aggregation runs one in-process task per block
  * ([[repro.core.EdgeOps]]).
  */
final class EdgeLayout private (
    val ids: Array[Long],
    val outDeg: Array[Int],
    val inDeg: Array[Int],
    val adjOff: Array[Int],
    val adjDst: Array[Int],
    val chunkStarts: Array[Int],
    val blocks: Array[EdgeBlock],
) {
  def numVertices: Int = ids.length
  def numEdges: Long = adjDst.length.toLong
  def numChunks: Int = chunkStarts.length - 1

  /** Dense index of vertex `id`, or -1 if it is not a vertex. */
  def indexOf(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else -1
  }

  /** Out-neighbours of vertex index `i`, as vertex ids. */
  def outNbrIds(i: Int): Array[Long] = adjDst.slice(adjOff(i), adjOff(i + 1)).map(ids)

  /** The edges laid out here, by vertex id, in (dst, src) order. */
  def edgeList: EdgeList = {
    val (src, dst, weight) = indexedEdges
    val m = src.length
    new EdgeList(EdgeLayout.gather(ids, src, 0, m), EdgeLayout.gather(ids, dst, 0, m), weight)
  }

  /** The edges laid out here, by dense index, in (dst, src) order: the
    * blocks' CSC arrays end to end.
    */
  private def indexedEdges: (Array[Int], Array[Int], Array[Double]) = {
    val m = adjDst.length
    val (src, dst, weight) = (new Array[Int](m), new Array[Int](m), new Array[Double](m))
    var e = 0
    for (b <- blocks) {
      System.arraycopy(b.inSrc, 0, src, e, b.numEdges)
      System.arraycopy(b.inW, 0, weight, e, b.numEdges)
      e += b.numEdges
    }
    e = 0
    for (d <- 0 until numVertices) { java.util.Arrays.fill(dst, e, e + inDeg(d), d); e += inDeg(d) }
    (src, dst, weight)
  }

  /** Undirected view, laid out in this layout's chunk count: these edges
    * plus their reverses, as distinct (src, dst, weight) triples, the set
    * SQL's `union` + `distinct` gives. A pair whose two directions carry
    * different weights keeps both weights in each direction; min/max apps
    * are unaffected and CC ignores weights. The view has exactly these
    * vertices, so it keeps `ids` and works on dense indices throughout.
    */
  def symmetrize(name: String): EdgeLayout = {
    import EdgeLayout.{countingSort, gather, sameWeight}
    val (src, dst, weight) = indexedEdges
    val m = src.length
    val s = Array.concat(src, dst)
    val d = Array.concat(dst, src)
    val w = Array.concat(weight, weight)
    val order = countingSort(countingSort(Array.range(0, 2 * m), d, numVertices), s, numVertices)
    // Equal (src, dst) pairs are adjacent in `order`: keep each run's first
    // edge of every distinct weight. A run holds at most two edges unless
    // the input repeats a pair, so scanning it is cheap.
    val keep = new Array[Int](2 * m)
    var kept = 0
    var runStart = 0
    var k = 0
    while (k < order.length) {
      val e = order(k)
      if (k > 0 && (s(e) != s(order(k - 1)) || d(e) != d(order(k - 1)))) runStart = kept
      var dup = false
      var j = runStart
      while (j < kept && !dup) { dup = sameWeight(w(keep(j)), w(e)); j += 1 }
      if (!dup) { keep(kept) = e; kept += 1 }
      k += 1
    }
    EdgeLayout.fromIndexed(ids, gather(s, keep, 0, kept), gather(d, keep, 0, kept), gather(w, keep, 0, kept),
      numChunks, name)
  }
}

object EdgeLayout {

  /** Vertex ids must lie strictly within +-2^53: vertex values are
    * `Double`s, and CC labels each vertex by its id, which a `Double`
    * carries exactly only in that range.
    */
  val IdLimit: Long = 1L << 53

  /** Lay `edges` out in `chunks` destination chunks. */
  def build(edges: EdgeList, chunks: Int, name: String): EdgeLayout = {
    val (ids, src, dst) = EdgeList.index(edges.src, edges.dst)
    if (ids.nonEmpty) require(ids.head > -IdLimit && ids.last < IdLimit,
      s"graph $name has vertex id ${if (ids.last >= IdLimit) ids.last else ids.head} outside " +
        s"(-2^53, 2^53): vertex values are Doubles, and CC carries vertex ids as labels")
    fromIndexed(ids, src, dst, edges.weight, chunks, name)
  }

  /** Lay out in `chunks` destination chunks the edges `src(e) -> dst(e)` of
    * weight `weight(e)`, given by dense index into the ascending vertex ids
    * `ids`, each of which is an endpoint of some edge.
    */
  private[graph] def fromIndexed(ids: Array[Long], src: Array[Int], dst: Array[Int], weight: Array[Double],
                                 chunks: Int, name: String): EdgeLayout = {
    require(chunks > 0, s"graph $name: $chunks chunks")
    val n = ids.length
    val m = src.length
    val outDeg = new Array[Int](n)
    val inDeg = new Array[Int](n)
    var e = 0
    while (e < m) { outDeg(src(e)) += 1; inDeg(dst(e)) += 1; e += 1 }

    // Both edge orders by stable counting sorts, ties in input order:
    // (src, dst), which generated and symmetrized edges already come in, and
    // (dst, src), which sorting (src, dst) by dst gives.
    val all = Array.range(0, m)
    val bySrc = if (ascending(src, dst)) all else countingSort(countingSort(all, dst, n), src, n)
    val byDst = countingSort(bySrc, dst, n)
    val adjOff = offsets(outDeg)
    val inOff = offsets(inDeg)
    val chunkStarts = Chunking.cut(n, inDeg(_), chunks)

    // Chunks are destination ranges, so `byDst` restricts to each intact, and
    // one pass deals `bySrc` out to them in (src, dst) order: chunk c's
    // edges fill positions inOff(lo) until inOff(hi) of `out`, as in `byDst`,
    // and outCount(c) counts them per source.
    val chunkOf = new Array[Int](n)
    for (c <- 0 until chunks) java.util.Arrays.fill(chunkOf, chunkStarts(c), chunkStarts(c + 1), c)
    val next = Array.tabulate(chunks)(c => inOff(chunkStarts(c)))
    val outCount = Array.fill(chunks)(new Array[Int](n + 1))
    val out = new Array[Int](m)
    var k = 0
    while (k < m) {
      val e = bySrc(k)
      val c = chunkOf(dst(e))
      out(next(c)) = e
      next(c) += 1
      outCount(c)(src(e) + 1) += 1
      k += 1
    }
    val blocks = Array.tabulate(chunks) { c =>
      val (lo, hi) = (chunkStarts(c), chunkStarts(c + 1))
      val (from, to) = (inOff(lo), inOff(hi))
      val inOffLocal = new Array[Int](hi - lo + 1)
      for (d <- lo to hi) inOffLocal(d - lo) = inOff(d) - from
      val outOff = outCount(c)
      for (s <- 0 until n) outOff(s + 1) += outOff(s)
      new EdgeBlock(lo, hi, inOffLocal, gather(src, byDst, from, to), gather(weight, byDst, from, to),
        outOff, gather(dst, out, from, to), gather(weight, out, from, to), outDeg)
    }
    new EdgeLayout(ids, outDeg, inDeg, adjOff, gather(dst, bySrc, 0, m), chunkStarts, blocks)
  }

  /** CSR offsets from per-vertex counts. */
  private def offsets(counts: Array[Int]): Array[Int] = {
    val off = new Array[Int](counts.length + 1)
    for (i <- counts.indices) off(i + 1) = off(i) + counts(i)
    off
  }

  /** Whether the pairs `(src(e), dst(e))` never descend. */
  private def ascending(src: Array[Int], dst: Array[Int]): Boolean = {
    var e = 1
    while (e < src.length && (src(e - 1) < src(e) || src(e - 1) == src(e) && dst(e - 1) <= dst(e))) e += 1
    e >= src.length
  }

  /** SQL `distinct`'s equality on doubles: -0.0 equals 0.0 and every NaN
    * equals every NaN.
    */
  private def sameWeight(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN)

  /** `order` stably sorted by `key(e)`, keys in `0 until n` (a counting sort). */
  private def countingSort(order: Array[Int], key: Array[Int], n: Int): Array[Int] = {
    val next = new Array[Int](n + 1)
    var i = 0
    while (i < order.length) { next(key(order(i)) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { next(i + 1) += next(i); i += 1 }
    val out = new Array[Int](order.length)
    i = 0
    while (i < order.length) {
      val e = order(i)
      out(next(key(e))) = e
      next(key(e)) += 1
      i += 1
    }
    out
  }

  /** `xs(idx(i))` for each `i` in `from until to`. */
  private def gather(xs: Array[Int], idx: Array[Int], from: Int, to: Int): Array[Int] = {
    val out = new Array[Int](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }

  private def gather(xs: Array[Long], idx: Array[Int], from: Int, to: Int): Array[Long] = {
    val out = new Array[Long](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }

  private def gather(xs: Array[Double], idx: Array[Int], from: Int, to: Int): Array[Double] = {
    val out = new Array[Double](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }
}
