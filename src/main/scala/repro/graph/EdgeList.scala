package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A graph's edges in driver memory, as three primitive arrays: edge `e`
  * runs from `src(e)` to `dst(e)` with weight `weight(e)`. Every graph's
  * layout is built from one ([[EdgeLayout.build]]), and the DataFrame that
  * oracles read is a view of one ([[toDF]]).
  */
final class EdgeList(val src: Array[Long], val dst: Array[Long], val weight: Array[Double]) {
  require(src.length == dst.length && dst.length == weight.length,
    s"${src.length} sources, ${dst.length} destinations and ${weight.length} weights")

  def size: Int = src.length

  /** The edges as a DataFrame `src, dst, weight`. Building it starts no
    * Spark job; reading it runs one task, which ships the three arrays and
    * makes the rows from them.
    */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val (s, d, w) = (src, dst, weight)
    spark.sparkContext.parallelize(Seq(0), 1)
      .flatMap(_ => Iterator.tabulate(s.length)(e => (s(e), d(e), w(e))))
      .toDF("src", "dst", "weight")
  }

  /** Undirected view: these edges plus their reverses, as distinct
    * (src, dst, weight) triples, the set SQL's `union` + `distinct` gives.
    * A pair whose two directions carry different weights keeps both
    * weights in each direction; min/max apps are unaffected and CC ignores
    * weights. Triples come out in (src, dst) order.
    */
  def symmetrize: EdgeList = {
    val m = size
    val s = Array.concat(src, dst)
    val d = Array.concat(dst, src)
    val w = Array.concat(weight, weight)
    val (ids, si, di) = EdgeList.index(s, d)
    val n = ids.length
    val order = EdgeList.countingSort(EdgeList.countingSort(Array.range(0, 2 * m), di, n), si, n)
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
      while (j < kept && !dup) { dup = EdgeList.sameWeight(w(keep(j)), w(e)); j += 1 }
      if (!dup) { keep(kept) = e; kept += 1 }
      k += 1
    }
    new EdgeList(EdgeList.gather(s, keep, 0, kept), EdgeList.gather(d, keep, 0, kept),
      EdgeList.gather(w, keep, 0, kept))
  }
}

object EdgeList {

  /** SQL `distinct`'s equality on doubles: -0.0 equals 0.0 and every NaN
    * equals every NaN.
    */
  private def sameWeight(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN)

  /** The distinct values among `xs` and `ys`, ascending, and the position
    * of each of `xs` and of `ys` in them.
    */
  private[graph] def index(xs: Array[Long], ys: Array[Long]): (Array[Long], Array[Int], Array[Int]) = {
    val ids = distinctSorted(Array.concat(xs, ys))
    (ids, indexIn(ids, xs), indexIn(ids, ys))
  }

  /** The distinct values of `xs`, ascending; sorts `xs` in place. */
  private[graph] def distinctSorted(xs: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(xs)
    var u = 0
    var i = 0
    while (i < xs.length) {
      if (u == 0 || xs(i) != xs(u - 1)) { xs(u) = xs(i); u += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(xs, u)
  }

  /** The position of each of `xs` in the ascending `ids`, which hold them all. */
  private[graph] def indexIn(ids: Array[Long], xs: Array[Long]): Array[Int] = {
    val out = new Array[Int](xs.length)
    var i = 0
    while (i < xs.length) { out(i) = java.util.Arrays.binarySearch(ids, xs(i)); i += 1 }
    out
  }

  /** `order` stably sorted by `key(e)`, keys in `0 until n` (a counting sort). */
  private[graph] def countingSort(order: Array[Int], key: Array[Int], n: Int): Array[Int] = {
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
  private[graph] def gather(xs: Array[Int], idx: Array[Int], from: Int, to: Int): Array[Int] = {
    val out = new Array[Int](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }

  private[graph] def gather(xs: Array[Long], idx: Array[Int], from: Int, to: Int): Array[Long] = {
    val out = new Array[Long](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }

  private[graph] def gather(xs: Array[Double], idx: Array[Int], from: Int, to: Int): Array[Double] = {
    val out = new Array[Double](to - from)
    var i = from
    while (i < to) { out(i - from) = xs(idx(i)); i += 1 }
    out
  }
}
