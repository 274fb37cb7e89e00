package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GroupingSpec extends AnyFunSuite {

  test("sizes and members are consistent") {
    val g = new Grouping(Array(0, 1, 0, 2, 1, 0), 3)
    assert(g.sizes.toSeq == Seq(3, 2, 1))
    assert(g.members(0).toSeq == Seq(0, 2, 5))
    assert(g.members(1).toSeq == Seq(1, 4))
    assert(g.members(2).toSeq == Seq(3))
    assert(g.nSets == 6)
  }

  test("out-of-range assignment rejected") {
    intercept[IllegalArgumentException](new Grouping(Array(0, 3), 3))
    intercept[IllegalArgumentException](new Grouping(Array(-1), 1))
  }

  test("imbalance of a perfectly balanced grouping is 1") {
    val g = new Grouping(Array(0, 0, 1, 1, 2, 2), 3)
    assert(g.imbalance == 1.0)
  }

  test("imbalance grows with skew") {
    val g = new Grouping(Array(0, 0, 0, 0, 0, 1), 2)
    assert(g.imbalance > 1.5)
  }

  test("gpoExact on a hand-computed case") {
    // two identical sets in one group (distance 0), one lone set elsewhere
    val db: Array[Array[Int]] = Array(Array(1, 2), Array(1, 2), Array(9))
    val g = new Grouping(Array(0, 0, 1), 2)
    assert(Grouping.gpoExact(db, g) == 0.0)
    // put the disjoint set with one of them: ordered-pair distances 1+1
    val g2 = new Grouping(Array(0, 1, 0), 2)
    assert(Grouping.gpoExact(db, g2) == 2.0)
  }

  test("gpoSampled approximates gpoExact") {
    val rnd = new Random(21)
    val db: Array[Array[Int]] =
      Array.fill(60)(SetOps.canon(Seq.fill(rnd.nextInt(8) + 2)(rnd.nextInt(40))))
    val g = Grouping.random(60, 4, 5)
    val exact = Grouping.gpoExact(db, g)
    val approx = Grouping.gpoSampled(db, g, pairSample = 2000)
    assert(math.abs(exact - approx) / exact < 0.15)
  }

  test("uMetric counts distinct tokens per group") {
    val db: Array[Array[Int]] = Array(Array(1, 2), Array(2, 3), Array(10))
    val g = new Grouping(Array(0, 0, 1), 2)
    assert(Grouping.uMetric(db, g) == 3 + 1)
  }

  test("uMetric is minimal when identical sets share a group (Property 2)") {
    val db: Array[Array[Int]] = Array(Array(1, 2), Array(1, 2), Array(5, 6), Array(5, 6))
    val good = new Grouping(Array(0, 0, 1, 1), 2)
    val bad = new Grouping(Array(0, 1, 0, 1), 2)
    assert(Grouping.uMetric(db, good) < Grouping.uMetric(db, bad))
  }

  test("random grouping assigns all sets within range") {
    val g = Grouping.random(100, 7, 3)
    assert(g.assignment.forall(a => a >= 0 && a < 7))
    assert(g.nSets == 100)
  }
}
