package repro.graph

import org.apache.spark.sql.DataFrame
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
}

object EdgeLayout {

  /** Vertex ids must lie strictly within +-2^53: vertex values are
    * `Double`s, and CC labels each vertex by its id, which a `Double`
    * carries exactly only in that range.
    */
  val IdLimit: Long = 1L << 53

  /** Build the layout with one collect of `edges` (`src, dst, weight`).
    * The chunk count is `edges`' partition count.
    */
  def build(edges: DataFrame, name: String): EdgeLayout = {
    val spark = edges.sparkSession
    import spark.implicits._
    val parts = edges.select($"src", $"dst", $"weight").as[(Long, Long, Double)].rdd
      .mapPartitions { it =>
        val s = Array.newBuilder[Long]; val d = Array.newBuilder[Long]; val w = Array.newBuilder[Double]
        it.foreach { case (a, b, c) => s += a; d += b; w += c }
        Iterator((s.result(), d.result(), w.result()))
      }
      .collect()
    val srcIds = parts.flatMap(_._1)
    val dstIds = parts.flatMap(_._2)
    val weight = parts.flatMap(_._3)
    val ids = distinctSorted(srcIds ++ dstIds)
    if (ids.nonEmpty) require(ids.head > -IdLimit && ids.last < IdLimit,
      s"graph $name has vertex id ${if (ids.last >= IdLimit) ids.last else ids.head} outside " +
        s"(-2^53, 2^53): vertex values are Doubles, and CC carries vertex ids as labels")
    val n = ids.length
    val src = srcIds.map(java.util.Arrays.binarySearch(ids, _))
    val dst = dstIds.map(java.util.Arrays.binarySearch(ids, _))
    val outDeg = new Array[Int](n)
    val inDeg = new Array[Int](n)
    src.foreach(s => outDeg(s) += 1)
    dst.foreach(d => inDeg(d) += 1)

    // Both edge orders by two stable counting sorts: (src, dst) and (dst, src).
    val all = Array.range(0, src.length)
    val bySrc = countingSort(countingSort(all, dst, n), src, n)
    val byDst = countingSort(countingSort(all, src, n), dst, n)
    val adjOff = offsets(outDeg)
    val inOff = offsets(inDeg)

    val k = parts.length.max(1)
    val chunks = Chunking.partition(ids.toIndexedSeq,
      id => inDeg(java.util.Arrays.binarySearch(ids, id)).toLong, k)
    val chunkStarts = chunks.scanLeft(0)(_ + _.vertices.size).toArray
    val blocks = Array.tabulate(k) { c =>
      val (lo, hi) = (chunkStarts(c), chunkStarts(c + 1))
      // Chunks are destination ranges, so both orders restrict to them intact.
      val in = byDst.slice(inOff(lo), inOff(hi))
      val out = bySrc.filter(e => dst(e) >= lo && dst(e) < hi)
      val outCount = new Array[Int](n)
      out.foreach(e => outCount(src(e)) += 1)
      new EdgeBlock(lo, hi, inOff.slice(lo, hi + 1).map(_ - inOff(lo)), in.map(src), in.map(weight),
        offsets(outCount), out.map(dst), out.map(weight), outDeg)
    }
    new EdgeLayout(ids, outDeg, inDeg, adjOff, bySrc.map(dst), chunkStarts, blocks)
  }

  private def distinctSorted(xs: Array[Long]): Array[Long] = {
    if (xs.isEmpty) return xs
    java.util.Arrays.sort(xs)
    val b = Array.newBuilder[Long]
    b += xs(0)
    for (i <- 1 until xs.length if xs(i) != xs(i - 1)) b += xs(i)
    b.result()
  }

  /** `order` stably sorted by `key(e)`, keys in `0 until n`. */
  private def countingSort(order: Array[Int], key: Array[Int], n: Int): Array[Int] = {
    val next = new Array[Int](n + 1)
    order.foreach(e => next(key(e) + 1) += 1)
    for (i <- 0 until n) next(i + 1) += next(i)
    val out = new Array[Int](order.length)
    order.foreach { e => out(next(key(e))) = e; next(key(e)) += 1 }
    out
  }

  /** CSR offsets from per-vertex counts. */
  private def offsets(counts: Array[Int]): Array[Int] = counts.scanLeft(0)(_ + _)
}
