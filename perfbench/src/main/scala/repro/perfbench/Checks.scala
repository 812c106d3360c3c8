package repro.perfbench

import scala.collection.mutable
import repro.bench.Harness.Prepared
import repro.core.RunResult
import repro.graph.Reference

/** Checks one prepared graph's cells against the sequential references in
  * `graph.Reference`, outside the timed region:
  *
  * - SSSP (unit weights), CC and WP must equal Dijkstra, union-find and the
  *   widest-path search exactly. Since every system must match the same
  *   reference, this also checks SLFE == Gemini (Theorem 1).
  * - PR and TR must match synchronous power iteration within
  *   [[Checks.ArithRelTol]]. The reference runs as many iterations as the
  *   first checked cell of the app, a no-RR system (the cells of a pass run
  *   PowerG first), so the no-RR systems match it to rounding; SLFE's
  *   finish-early freezing and earlier stop are what the tolerance admits.
  */
final class Checks(p: Prepared) {

  private lazy val edges: Seq[(Long, Long, Double)] = {
    val spark = p.g.spark
    import spark.implicits._
    p.g.edges.select($"src", $"dst", $"weight").as[(Long, Long, Double)].collect().toSeq
  }

  private lazy val sssp = Reference.sssp(edges.map { case (s, d, _) => (s, d, 1.0) }, p.root)
  private lazy val cc = Reference.components(edges).map { case (v, l) => v -> l.toDouble }
  private lazy val wp = Reference.widestPath(edges, p.root)
  private val arith = mutable.Map.empty[String, Map[Long, Double]]

  /** None when `r` is correct for `app`, else a one-line reason. */
  def apply(app: String, r: RunResult): Option[String] = app match {
    case "SSSP" => mismatch(r, sssp, 0.0)
    case "CC"   => mismatch(r, cc, 0.0)
    case "WP"   => mismatch(r, wp, 0.0)
    case "PR" | "TR" =>
      val ref = arith.getOrElseUpdate(app,
        if (app == "PR") Reference.pagerank(edges, r.iterations)
        else Reference.tunkrank(edges, r.iterations))
      mismatch(r, ref, Checks.ArithRelTol)
  }

  private def mismatch(r: RunResult, ref: Map[Long, Double], relTol: Double): Option[String] =
    if (r.values.keySet != ref.keySet)
      Some(s"vertex set differs: ${r.values.size} vertices vs ${ref.size} in the reference")
    else ref.collectFirst {
      case (v, want) if math.abs(r.values(v) - want) > relTol * math.abs(want) =>
        s"vertex $v: ${r.values(v)} vs reference $want"
    }
}

object Checks {

  /** Relative tolerance for PR/TR at `Harness.ArithEps`: finish-early has
    * been measured to deviate by up to ~2.3e-5 relative on FS.
    */
  val ArithRelTol = 1e-4
}
