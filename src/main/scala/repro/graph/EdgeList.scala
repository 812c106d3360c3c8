package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A graph's edges in driver memory, as three primitive arrays: edge `e`
  * runs from `src(e)` to `dst(e)` with weight `weight(e)`. A graph is
  * defined by one ([[EdgeLayout.build]]; a symmetrized graph is laid out
  * from its source's layout instead), and the DataFrame that oracles read
  * is a view of one ([[toDF]]).
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
}

object EdgeList {

  /** The distinct values among `xs` and `ys`, ascending, and the position
    * of each of `xs` and of `ys` in them. Sorts and searches on the JDK
    * common pool.
    */
  private[graph] def index(xs: Array[Long], ys: Array[Long]): (Array[Long], Array[Int], Array[Int]) = {
    val ids = distinctSorted(Array.concat(xs, ys))
    (ids, indexIn(ids, xs), indexIn(ids, ys))
  }

  /** The distinct values of `xs`, ascending; sorts `xs` in place, in parallel. */
  private[graph] def distinctSorted(xs: Array[Long]): Array[Long] = {
    java.util.Arrays.parallelSort(xs)
    var u = 0
    var i = 0
    while (i < xs.length) {
      if (u == 0 || xs(i) != xs(u - 1)) { xs(u) = xs(i); u += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(xs, u)
  }

  /** The position of each of `xs` in the ascending `ids`, which hold them all. */
  private def indexIn(ids: Array[Long], xs: Array[Long]): Array[Int] = {
    val out = new Array[Int](xs.length)
    java.util.Arrays.parallelSetAll(out, (i: Int) => java.util.Arrays.binarySearch(ids, xs(i)))
    out
  }
}
