package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Immutable directed property graph.
  *
  * Its edges (`src: Long, dst: Long, weight: Double`) come from `source`,
  * which computes them in driver memory whenever they are needed, and keeps
  * nothing. The vertex set is the set of distinct edge endpoints
  * (real-world graph datasets are edge lists; isolated vertices carry no
  * information for any of the five applications).
  *
  * The engines run on [[layout]], Gemini's layering which SLFE inherits
  * (paper §3.1): dense vertex arrays and per-chunk CSR/CSC edge blocks, all
  * in local memory, in `chunks` destination chunks, which the engines'
  * chunk tasks read in place. The layout is the only form of the edges a
  * graph retains. The vertex ids, degrees and out-adjacency below are views
  * over its arrays.
  */
final class PropertyGraph private (
    val spark: SparkSession,
    val name: String,
    chunks: Int,
    source: () => EdgeList,
) {

  private var built: Option[EdgeLayout] = None

  /** The edge layout, built from `source` on first use and dropped by
    * [[unpersist]] (a later use builds it again).
    */
  def layout: EdgeLayout = synchronized {
    if (built.isEmpty) built = Some(EdgeLayout.build(source(), chunks, name))
    built.get
  }

  /** The edges as a DataFrame, for oracles: a view of [[current]]. */
  def edges: DataFrame = current.toDF(spark)

  /** The edge list: read back from the layout while it is built, else
    * computed from `source`, so reading the edges never rebuilds a layout
    * this graph has dropped.
    */
  private def current: EdgeList = synchronized(built) match {
    case Some(l) => l.edgeList
    case None => source()
  }

  /** Distinct vertex ids, ascending: vertex `vertexIds(i)` has dense index `i`. */
  def vertexIds: Array[Long] = layout.ids

  def numVertices: Long = layout.numVertices.toLong
  def numEdges: Long = layout.numEdges

  /** Out-degree per vertex (0 for pure sinks). */
  lazy val outDeg: Map[Long, Long] = { val l = layout; VertexMap(l.ids, l.outDeg(_).toLong) }

  /** In-degree per vertex (0 for pure sources). */
  lazy val inDeg: Map[Long, Long] = { val l = layout; VertexMap(l.ids, l.inDeg(_).toLong) }

  /** Out-neighbours per vertex (empty for pure sinks). */
  lazy val outNbrs: Map[Long, Array[Long]] = { val l = layout; VertexMap(l.ids, l.outNbrIds) }

  /** Vertex ids as a single-column DataFrame (for oracle queries). */
  def vertices: DataFrame = {
    import spark.implicits._
    vertexIds.toSeq.toDF("id")
  }

  /** In-degrees as a DataFrame (sources omitted), for `partition.Replication`'s hybrid cut. */
  def inDegrees: DataFrame = edges.groupBy(col("dst") as "id").agg(count(lit(1)) as "deg")

  /** Highest-out-degree vertex, smallest id on ties — the bench root. */
  lazy val maxOutDegVertex: Long = {
    val l = layout
    require(l.numVertices > 0, s"graph $name has no vertices")
    var best = 0
    var i = 1
    while (i < l.numVertices) { if (l.outDeg(i) > l.outDeg(best)) best = i; i += 1 }
    l.ids(best)
  }

  /** Undirected view: original plus reversed edges, as distinct
    * (src, dst, weight) triples ([[EdgeList.symmetrize]]) of this graph's
    * [[current]] edges, laid out in this graph's chunk count.
    */
  def symmetrize: PropertyGraph = new PropertyGraph(spark, name + "-sym", chunks, () => current.symmetrize)

  /** Build the layout now; returns `this` for chaining. */
  def cached(): PropertyGraph = { layout; this }

  /** Drop the layout. */
  def unpersist(): Unit = synchronized { built = None }
}

object PropertyGraph {

  /** The graph whose edge list `edges` computes in driver memory, computed
    * again whenever it is needed, laid out in `chunks` chunks. Defining it
    * starts no Spark job, and neither does laying it out.
    */
  def apply(spark: SparkSession, name: String = "g", chunks: Int)(edges: => EdgeList): PropertyGraph =
    new PropertyGraph(spark, name, chunks, () => edges)
}
