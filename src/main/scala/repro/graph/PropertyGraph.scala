package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Immutable directed property graph: its [[layout]], built once when the
  * graph is defined. The vertex set is the set of distinct edge endpoints
  * (real-world graph datasets are edge lists; isolated vertices carry no
  * information for any of the five applications).
  *
  * The layout is Gemini's layering, which SLFE inherits (paper §3.1): dense
  * vertex arrays and per-chunk CSR/CSC edge blocks, all in local memory,
  * which the engines' chunk tasks read in place. It is the only form of the
  * edges a graph keeps: the edges DataFrame, the vertex ids, degrees and
  * out-adjacency below are views over its arrays.
  */
final class PropertyGraph private (val spark: SparkSession, val name: String, val layout: EdgeLayout) {

  /** The edges (`src: Long, dst: Long, weight: Double`) as a DataFrame, for
    * oracles: a view of the layout's edge list.
    */
  def edges: DataFrame = layout.edgeList.toDF(spark)

  /** Distinct vertex ids, ascending: vertex `vertexIds(i)` has dense index `i`. */
  def vertexIds: Array[Long] = layout.ids

  def numVertices: Long = layout.numVertices.toLong
  def numEdges: Long = layout.numEdges

  /** Out-degree per vertex (0 for pure sinks). */
  lazy val outDeg: Map[Long, Long] = VertexMap(layout.ids, layout.outDeg(_).toLong)

  /** In-degree per vertex (0 for pure sources). */
  lazy val inDeg: Map[Long, Long] = VertexMap(layout.ids, layout.inDeg(_).toLong)

  /** Out-neighbours per vertex (empty for pure sinks). */
  lazy val outNbrs: Map[Long, Array[Long]] = VertexMap(layout.ids, layout.outNbrIds)

  /** Vertex ids as a single-column DataFrame (for oracle queries). */
  def vertices: DataFrame = {
    import spark.implicits._
    vertexIds.toSeq.toDF("id")
  }

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
    * (src, dst, weight) triples, laid out in this graph's chunk count
    * straight from this graph's layout ([[EdgeLayout.symmetrize]]).
    */
  def symmetrize: PropertyGraph = new PropertyGraph(spark, name + "-sym", layout.symmetrize(name + "-sym"))

  /** Returns `this`: the layout is built with the graph. Kept only because
    * perfbench calls it.
    */
  def cached(): PropertyGraph = this

  /** Does nothing: a graph's memory goes when its last reference goes. Kept
    * only because perfbench calls it.
    */
  def unpersist(): Unit = ()
}

object PropertyGraph {

  /** The graph of `edges`, laid out now in `chunks` chunks; the list itself
    * is not kept. Defining it starts no Spark job.
    */
  def apply(spark: SparkSession, name: String = "g", chunks: Int)(edges: EdgeList): PropertyGraph =
    new PropertyGraph(spark, name, EdgeLayout.build(edges, chunks, name))
}
