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
    val m = adjDst.length
    val (src, dst, weight) = (new Array[Long](m), new Array[Long](m), new Array[Double](m))
    var e = 0
    for (b <- blocks) {
      var d = b.lo
      while (d < b.hi) {
        var p = b.inOff(d - b.lo)
        while (p < b.inOff(d - b.lo + 1)) {
          src(e) = ids(b.inSrc(p)); dst(e) = ids(d); weight(e) = b.inW(p)
          e += 1; p += 1
        }
        d += 1
      }
    }
    new EdgeList(src, dst, weight)
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
    require(chunks > 0, s"graph $name: $chunks chunks")
    import EdgeList.{countingSort, gather}
    val (ids, src, dst) = EdgeList.index(edges.src, edges.dst)
    if (ids.nonEmpty) require(ids.head > -IdLimit && ids.last < IdLimit,
      s"graph $name has vertex id ${if (ids.last >= IdLimit) ids.last else ids.head} outside " +
        s"(-2^53, 2^53): vertex values are Doubles, and CC carries vertex ids as labels")
    val n = ids.length
    val m = edges.size
    val outDeg = new Array[Int](n)
    val inDeg = new Array[Int](n)
    var e = 0
    while (e < m) { outDeg(src(e)) += 1; inDeg(dst(e)) += 1; e += 1 }

    // Both edge orders by two stable counting sorts: (src, dst) and (dst, src).
    val all = Array.range(0, m)
    val bySrc = countingSort(countingSort(all, dst, n), src, n)
    val byDst = countingSort(countingSort(all, src, n), dst, n)
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
      new EdgeBlock(lo, hi, inOffLocal, gather(src, byDst, from, to), gather(edges.weight, byDst, from, to),
        outOff, gather(dst, out, from, to), gather(edges.weight, out, from, to), outDeg)
    }
    new EdgeLayout(ids, outDeg, inDeg, adjOff, gather(dst, bySrc, 0, m), chunkStarts, blocks)
  }

  /** CSR offsets from per-vertex counts. */
  private def offsets(counts: Array[Int]): Array[Int] = {
    val off = new Array[Int](counts.length + 1)
    for (i <- counts.indices) off(i + 1) = off(i) + counts(i)
    off
  }
}
