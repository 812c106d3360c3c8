package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Immutable directed property graph over a Spark `DataFrame` of edges.
  *
  * Schema: `src: Long, dst: Long, weight: Double`. The vertex set is the set
  * of distinct edge endpoints (real-world graph datasets are edge lists;
  * isolated vertices carry no information for any of the five applications).
  *
  * The engines run on [[layout]], Gemini's layering which SLFE inherits
  * (paper §3.1): dense vertex arrays on the driver, edges in per-chunk
  * CSR/CSC blocks cached on the executors. The vertex ids, degrees and
  * out-adjacency below are views over the layout's arrays.
  */
final case class PropertyGraph(edges: DataFrame, name: String = "g") {

  lazy val spark: SparkSession = edges.sparkSession

  private var built: Option[EdgeLayout] = None

  /** The edge layout, built by one collect of the edges on first use and
    * dropped by [[unpersist]] (a later use builds it again).
    */
  def layout: EdgeLayout = synchronized {
    if (built.isEmpty) built = Some(EdgeLayout.build(edges, name))
    built.get
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

  /** Out-degrees as a DataFrame (sinks omitted), for oracle checks. */
  def outDegrees: DataFrame = edges.groupBy(col("src") as "id").agg(count(lit(1)) as "deg")

  /** In-degrees as a DataFrame (sources omitted), for oracle checks. */
  def inDegrees: DataFrame = edges.groupBy(col("dst") as "id").agg(count(lit(1)) as "deg")

  /** Highest-out-degree vertex, smallest id on ties — the bench root. */
  lazy val maxOutDegVertex: Long = {
    val l = layout
    require(l.numVertices > 0, s"graph $name has no vertices")
    l.ids(l.outDeg.indices.maxBy(i => (l.outDeg(i), -i)))
  }

  /** Undirected view: original plus reversed edges, de-duplicated.
    * Weights ride along (CC ignores them; symmetric pairs keep both rows
    * only if their weights differ, which is harmless for min/max apps).
    */
  def symmetrize: PropertyGraph = {
    val rev = edges.select(col("dst") as "src", col("src") as "dst", col("weight"))
    PropertyGraph(edges.select("src", "dst", "weight").unionByName(rev).distinct(), name + "-sym")
  }

  /** Materialise and pin the edge list; returns `this` for chaining. */
  def cached(): PropertyGraph = { edges.persist(); edges.count(); this }

  /** Drop the cached edge list and the layout's edge blocks. */
  def unpersist(): Unit = synchronized {
    edges.unpersist()
    built.foreach(_.unpersist())
    built = None
  }
}
