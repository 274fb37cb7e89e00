package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{BruteForce, DualTrans, InvIdx}

/** ScalaCheck property: LES³ and HTGM answer exactly as brute force under
  * every measure, also after §6 inserts, and their counters keep the
  * meaning of Definition 2.3 while the size filter skips candidates; the
  * static, Jaccard-only baselines InvIdx and DualTrans answer exactly as
  * brute force too.
  */
class ExactnessPropsSpec extends AnyFunSuite {
  import ExactnessPropsSpec.Case

  private val Measures = Seq(SetOps.Jaccard, SetOps.Cosine, SetOps.Dice)
  // 0.07 = 7/100, 0.14 = 7/50 and 0.9 = 9/10 are Jaccard values of the
  // nested interval sets below: hits that sit exactly on δ.
  private val Deltas = Seq(0.07, 0.14, 0.3, 0.5, 0.9, 1.0)
  private val Ks = Seq(1, 3, 10)
  private val NTokens = 120
  private val Splits = 3

  /** A random set, or one of the nested intervals {0, …, L−1}. */
  private val genSet: Gen[Array[Int]] = Gen.frequency(
    3 -> Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.choose(0, NTokens - 1))).map(SetOps.canon),
    1 -> Gen.oneOf(0, 1, 7, 9, 10, 50, 100).map(Array.range(0, _)))

  private val genCase: Gen[Case] = for {
    n <- Gen.choose(1, 40)
    db <- Gen.listOfN(n, genSet).map(_.toArray)
    nCoarse <- Gen.choose(1, 4)
    coarse <- Gen.listOfN(n, Gen.choose(0, nCoarse - 1)).map(_.toArray)
    split <- Gen.listOfN(n, Gen.choose(0, Splits - 1)).map(_.toArray)
    // Sizes from 0 to 100 land at the head, the middle and the tail of a
    // block, and below or above every size it holds.
    inserts <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, genSet)).map(_.toArray)
    queries <- Gen.listOfN(inserts.length + 1, Gen.oneOf(genSet, Gen.oneOf(db.toSeq))).map(_.toArray)
  } yield Case(db, coarse, nCoarse, Array.tabulate(n)(i => coarse(i) * Splits + split(i)), inserts, queries)

  private def rangeOf(r: SearchResult) = r.hits.map(h => (h.sid, h.sim)).toSet
  private def knnOf(r: SearchResult) = r.hits.map(_.sim).sorted

  /** The engine agrees with `brute` on `q`, and its counters are sound. */
  private def agrees(engine: SimilarityIndex, brute: BruteForce, q: Array[Int]): Boolean =
    Deltas.forall { d =>
      val r = engine.range(q, d)
      rangeOf(r) == rangeOf(brute.range(q, d)) && r.stats.verified <= r.stats.candidates
    } && Ks.forall { k =>
      val r = engine.knn(q, k)
      knnOf(r) == knnOf(brute.knn(q, k)) && r.stats.verified <= r.stats.candidates
    }

  /** `candidates` is the number of members of the groups LES³ read. */
  private def candidatesAreGroupsRead(index: Les3Index, q: Array[Int]): Boolean = {
    val ubs = Array.tabulate(index.tgm.nGroups)(index.tgm.ub(q, _))
    val nonEmpty = Array.range(0, ubs.length).filter(index.members(_).nonEmpty)
    def sizeOf(gs: Array[Int]) = gs.iterator.map(index.members(_).length.toLong).sum
    Deltas.forall { d =>
      val s = index.range(q, d).stats
      val read = nonEmpty.filter(ubs(_) >= d)
      s.groupsRead == read.length && s.candidates == sizeOf(read)
    } && Ks.forall { k =>
      val s = index.knn(q, k).stats
      s.candidates == sizeOf(nonEmpty.sortBy(-ubs(_)).take(s.groupsRead))
    }
  }

  /** Every block lists its members once, in (size, sid) order. */
  private def blocksSorted(index: Les3Index): Boolean = {
    val blocks = (0 until index.tgm.nGroups).map(index.members(_).toSeq)
    blocks.forall(m => m == m.sortBy(sid => (index.db(sid).length, sid))) &&
      blocks.flatten.sorted == (0 until index.nSets)
  }

  test("LES³ and HTGM equal brute force, before and after interleaved inserts") {
    val prop = Prop.forAll(genCase) { c =>
      Measures.forall { m =>
        val index = new Les3Index(c.db, new Grouping(c.fine, c.nCoarse * Splits), m)
        val htgm = HTGM.build(c.db, Seq(new Grouping(c.coarse, c.nCoarse),
                                        new Grouping(c.fine, c.nCoarse * Splits)), m)
        val base = new BruteForce(c.db, m)
        agrees(htgm, base, c.queries(0)) && agrees(index, base, c.queries(0)) &&
          candidatesAreGroupsRead(index, c.queries(0)) &&
          c.inserts.indices.forall { i =>
            index.insert(c.inserts(i))
            val q = c.queries(i + 1)
            agrees(index, new BruteForce(index.db, m), q) && candidatesAreGroupsRead(index, q)
          } && blocksSorted(index)
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(150), prop)
    assert(res.passed, res.toString)
  }

  test("InvIdx and DualTrans equal brute force under Jaccard") {
    val prop = Prop.forAll(genCase) { c =>
      val base = new BruteForce(c.db)
      // A small fanout gives the R-tree inner nodes even for a few sets.
      val engines = Seq(new InvIdx(c.db), new DualTrans(c.db), new DualTrans(c.db, d = 4, fanout = 4))
      c.queries.forall(q => engines.forall(agrees(_, base, q)))
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(150), prop)
    assert(res.passed, res.toString)
  }

  test("every group bound reaches each member's similarity exactly, with no slack") {
    // Queries that extend a member make that member the group's matched
    // tokens often: the case where the bound must equal its similarity.
    val genQuery = (db: Array[Array[Int]]) => Gen.oneOf(genSet, for {
      s <- Gen.oneOf(db.toSeq)
      extra <- Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.choose(0, NTokens - 1)))
    } yield SetOps.canon(s ++ extra))
    val genBounds = for {
      c <- genCase
      qs <- Gen.listOfN(4, genQuery(c.db))
    } yield (c, qs)
    val prop = Prop.forAll(genBounds) { case (c, qs) =>
      Measures.forall { m =>
        val index = new Les3Index(c.db, new Grouping(c.fine, c.nCoarse * Splits), m)
        qs.forall { q =>
          val ubs = index.tgm.ubs(q)
          (0 until index.tgm.nGroups).forall { g =>
            ubs(g) == index.tgm.ub(q, g) && index.members(g).forall(sid => ubs(g) >= m.sim(q, c.db(sid)))
          }
        }
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.toString)
  }
}

object ExactnessPropsSpec {
  /** A database, a coarse grouping refined by `Splits`, sets to insert, and
    * queries (one per insert, and before the first).
    */
  final case class Case(db: Array[Array[Int]], coarse: Array[Int], nCoarse: Int,
                        fine: Array[Int], inserts: Array[Array[Int]], queries: Array[Array[Int]])
}
