package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.core.AggKind

/** Unit tests of the vertex-program definitions themselves (paper Table 1's
  * taxonomy and Table 3's API surface).
  */
class AppsSpec extends AnyFunSuite {

  test("taxonomy: SSSP/CC/WP are comparison apps, PR/TR arithmetic (Table 1)") {
    assert(Apps.sssp(0L).agg == AggKind.Min && !Apps.sssp(0L).arith)
    assert(Apps.cc.agg == AggKind.Min && !Apps.cc.arith)
    assert(Apps.wp(0L).agg == AggKind.Max && !Apps.wp(0L).arith)
    assert(Apps.pagerank().agg == AggKind.Sum && Apps.pagerank().arith)
    assert(Apps.tunkrank().agg == AggKind.Sum && Apps.tunkrank().arith)
  }

  test("SSSP init: only the root is active at distance 0") {
    val p = Apps.sssp(3L)
    assert(p.initValue(3L) == 0.0 && p.initValue(4L) == Apps.Inf)
    assert(p.initActive(3L) && !p.initActive(4L))
  }

  test("SSSP improves only on strict decrease") {
    val p = Apps.sssp(0L)
    assert(p.improves(1.0, 2.0) && !p.improves(2.0, 2.0) && !p.improves(3.0, 2.0))
  }

  test("CC init: every vertex active, labelled by its own id") {
    assert(Apps.cc.initValue(17L) == 17.0 && Apps.cc.initActive(17L))
  }

  test("WP init and improvement direction") {
    val p = Apps.wp(5L)
    assert(p.initValue(5L) == Apps.Inf && p.initValue(6L) == 0.0)
    assert(p.improves(3.0, 1.0) && !p.improves(1.0, 3.0))
  }

  test("PR apply implements 0.15 + 0.85 * aggregate") {
    val p = Apps.pagerank()
    assert(math.abs(p.applyFn(2.0, 999.0) - (0.15 + 0.85 * 2.0)) < 1e-12)
    assert(p.applyFn(0.0, 1.0) == 0.15)
  }

  test("PR change detection respects eps") {
    val p = Apps.pagerank(eps = 1e-3)
    assert(!p.improves(1.0, 1.0005) && p.improves(1.0, 1.01))
  }

  test("TR apply is the raw aggregate with zero default") {
    val p = Apps.tunkrank()
    assert(p.applyFn(2.5, 7.0) == 2.5 && p.agg.zero == 0.0)
  }

  test("message functions compute the per-edge messages") {
    // srcVal 4, weight 3, source out-degree 2.
    def eval(p: repro.core.VertexProgram): Double = p.msg(4.0, 3.0, 2L)
    assert(eval(Apps.sssp(0L)) == 7.0)            // srcVal + w
    assert(eval(Apps.sssp(0L, unitWeight = true)) == 5.0) // srcVal + 1
    assert(eval(Apps.cc) == 4.0)                  // srcVal
    assert(eval(Apps.wp(0L)) == 3.0)              // min(srcVal, w)
    assert(eval(Apps.pagerank()) == 2.0)          // srcVal / outDeg
    assert(eval(Apps.tunkrank()) == (1.0 + 0.5 * 4.0) / 2) // (1 + p*srcVal)/outDeg
  }
}
