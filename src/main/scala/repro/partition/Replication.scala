package repro.partition

import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph

/** Vertex replication factors of the comparison systems' ingress schemes.
  *
  * PowerGraph places edges by random vertex-cut; PowerLyra's hybrid-cut
  * keeps a low-in-degree vertex's in-edges on one machine and only splits
  * high-degree vertices. The replication factor (average number of machines
  * holding a copy of a vertex) drives their synchronization traffic — the
  * systems-level reason the paper's absolute gaps exceed pure
  * computation-count gaps (see DESIGN.md). Computed with Spark SQL.
  */
object Replication {

  /** Replication factor of a per-edge placement: avg distinct machines per
    * vertex, where a vertex occupies every machine holding an incident edge.
    */
  private def replicationFactor(g: PropertyGraph, withNode: org.apache.spark.sql.DataFrame): Double = {
    val placed = withNode
      .select(explode(array(col("src"), col("dst"))) as "v", col("node"))
      .distinct()
      .count()
    placed.toDouble / g.numVertices
  }

  /** PowerGraph-style random vertex-cut over `k` machines. */
  def randomVertexCut(g: PropertyGraph, k: Int, seed: Int = 7): Double =
    replicationFactor(g, g.edges.withColumn("node", pmod(hash(col("src"), col("dst"), lit(seed)), lit(k))))

  /** PowerLyra-style hybrid-cut: in-edges of a destination with in-degree
    * below `threshold` hash by destination (one machine); high-in-degree
    * destinations hash by source (split like a vertex-cut).
    */
  def hybridCut(g: PropertyGraph, k: Int, threshold: Long, seed: Int = 7): Double = {
    val inDeg = g.inDegrees.select(col("id") as "dd", col("deg"))
    val placed = g.edges
      .join(inDeg, col("dst") === col("dd"))
      .withColumn("node",
        when(col("deg") < threshold, pmod(hash(col("dst"), lit(seed)), lit(k)))
          .otherwise(pmod(hash(col("src"), lit(seed)), lit(k))))
    replicationFactor(g, placed)
  }
}
