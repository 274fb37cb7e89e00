package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck property suite for the set-algebra layer and the Thm 3.1
  * bound contract (run through scalacheck's own engine and asserted to
  * pass).
  */
class SetOpsPropsSpec extends AnyFunSuite {

  private val genSet: Gen[Array[Int]] =
    Gen.listOf(Gen.choose(0, 60)).map(ts => SetOps.canon(ts))

  private def check(name: String, prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, s"$name: $res")
  }

  test("jaccard is bounded in [0,1]") {
    check("bounds", Prop.forAll(genSet, genSet) { (a, b) =>
      val j = SetOps.jaccard(a, b); j >= 0.0 && j <= 1.0
    })
  }

  test("jaccard is symmetric") {
    check("symmetry", Prop.forAll(genSet, genSet) { (a, b) =>
      SetOps.jaccard(a, b) == SetOps.jaccard(b, a)
    })
  }

  test("jaccard(a, a) = 1") {
    check("reflexive", Prop.forAll(genSet) { a =>
      a.isEmpty || SetOps.jaccard(a, a) == 1.0
    })
  }

  test("jaccard distance satisfies the triangle inequality") {
    check("triangle", Prop.forAll(genSet, genSet, genSet) { (a, b, c) =>
      val dab = 1 - SetOps.jaccard(a, b)
      val dbc = 1 - SetOps.jaccard(b, c)
      val dac = 1 - SetOps.jaccard(a, c)
      dac <= dab + dbc + 1e-12
    })
  }

  test("intersectSize equals the set-theoretic intersection size") {
    check("intersect", Prop.forAll(genSet, genSet) { (a, b) =>
      SetOps.intersectSize(a, b) == a.toSet.intersect(b.toSet).size
    })
  }

  test("TGM UB dominates member similarity for all measures (Thm 3.1)") {
    val genDb = Gen.listOfN(20, genSet.suchThat(_.nonEmpty)).map(_.toArray)
    for (m <- Seq(SetOps.Jaccard, SetOps.Cosine, SetOps.Dice)) {
      check(s"ub-${m.name}", Prop.forAll(genDb, genSet.suchThat(_.nonEmpty)) { (db, q) =>
        val g = new Grouping(Array.tabulate(db.length)(_ % 3), 3)
        val tgm = TGM.build(db, g, m)
        db.indices.forall { sid =>
          tgm.ub(q, g.assignment(sid)) >= m.sim(q, db(sid))
        }
      })
    }
  }

  test("canon is idempotent") {
    check("canon", Prop.forAll(Gen.listOf(Gen.choose(0, 1000))) { ts =>
      val once = SetOps.canon(ts)
      SetOps.canon(once).sameElements(once)
    })
  }

  test("dice and jaccard agree on the order of pairs") {
    check("order", Prop.forAll(genSet, genSet, genSet) { (q, a, b) =>
      val byJ = SetOps.jaccard(q, a).compareTo(SetOps.jaccard(q, b))
      val byD = SetOps.dice(q, a).compareTo(SetOps.dice(q, b))
      byJ.sign == byD.sign
    })
  }
}
