package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Exactness of the LES³ engine under non-Jaccard measures (§3.2: any
  * measure with the TGM Applicability Property works unchanged).
  */
class MeasureSearchSpec extends AnyFunSuite {

  private def randomDb(n: Int, nTokens: Int, maxSize: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.fill(n)(SetOps.canon(Seq.fill(rnd.nextInt(maxSize) + 1)(rnd.nextInt(nTokens))))
  }

  private def bruteKnn(db: Array[Array[Int]], q: Array[Int], k: Int,
                       m: SetOps.Measure): Seq[Double] =
    db.map(m.sim(q, _)).sorted.reverse.take(k).toSeq

  private def bruteRange(db: Array[Array[Int]], q: Array[Int], d: Double,
                         m: SetOps.Measure): Seq[(Int, Double)] =
    db.indices.map(i => (i, m.sim(q, db(i)))).filter(_._2 >= d)

  for (m <- Seq(SetOps.Cosine, SetOps.Dice)) {

    test(s"${m.name}: range search matches a brute scan") {
      val rnd = new Random(m.name.hashCode)
      for (trial <- 1 to 8) {
        val db = randomDb(100, 40, 7, rnd.nextLong())
        val index = new Les3Index(db, Grouping.random(db.length, 8, rnd.nextLong()), m)
        for (d <- Seq(0.4, 0.7, 0.9)) {
          val q = db(rnd.nextInt(db.length))
          val got = index.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
          assert(got == bruteRange(db, q, d, m).sortBy(_._1), s"trial $trial d=$d")
        }
      }
    }

    test(s"${m.name}: kNN similarity profile matches a brute scan") {
      val rnd = new Random(m.name.hashCode * 31)
      for (trial <- 1 to 8) {
        val db = randomDb(120, 50, 8, rnd.nextLong())
        val index = new Les3Index(db, Grouping.random(db.length, 10, rnd.nextLong()), m)
        for (k <- Seq(1, 7)) {
          val q = db(rnd.nextInt(db.length))
          assert(index.knn(q, k).hits.map(_.sim).toSeq.sorted ==
                 bruteKnn(db, q, k, m).sorted, s"trial $trial k=$k")
        }
      }
    }

    test(s"${m.name}: HTGM search matches a brute scan") {
      val rnd = new Random(m.name.hashCode * 17)
      val db = randomDb(100, 40, 6, 5)
      val coarseArr = Array.fill(100)(rnd.nextInt(3))
      val fineArr = coarseArr.map(c => c * 2 + rnd.nextInt(2))
      val htgm = HTGM.build(db, Seq(new Grouping(coarseArr, 3), new Grouping(fineArr, 6)), m)
      val q = db(3)
      assert(htgm.knn(q, 5).hits.map(_.sim).toSeq.sorted == bruteKnn(db, q, 5, m).sorted)
      assert(htgm.range(q, 0.6).hits.map(_.sid).sorted.toSeq ==
             bruteRange(db, q, 0.6, m).map(_._1).sorted)
    }
  }

  test("insert keeps cosine search exact (§6 under a non-Jaccard measure)") {
    val rnd = new Random(9)
    val db = randomDb(60, 30, 6, 13)
    val index = new Les3Index(db, Grouping.random(db.length, 6, 7), SetOps.Cosine)
    for (_ <- 1 to 20) index.insert(SetOps.canon(Seq.fill(rnd.nextInt(5) + 1)(rnd.nextInt(50))))
    val all = index.db.toArray
    val q = all(70)
    assert(index.knn(q, 5).hits.map(_.sim).toSeq.sorted ==
           bruteKnn(all, q, 5, SetOps.Cosine).sorted)
  }

  test("cosine: a member made of exactly the matched tokens reaches its group's bound") {
    // |Q| = 3, G0 = {{0}}: sim = 1/sqrt(3), which sqrt(1/3) undershoots by
    // one ulp. G1's only member has sim 3/sqrt(27), that lower neighbour.
    val q = Array(0, 1, 2)
    val db = Array(Array(0), Array(0, 1, 2, 10, 11, 12, 13, 14, 15))
    val index = new Les3Index(db, new Grouping(Array(0, 1), 2), SetOps.Cosine)
    val delta = 1.0 / math.sqrt(3.0)
    assert(SetOps.Cosine.sim(q, db(0)) == delta && SetOps.Cosine.sim(q, db(1)) < delta)
    assert(index.range(q, delta).hits.map(_.sid).toSeq == Seq(0))
    assert(index.knn(q, 1).hits.map(h => (h.sid, h.sim)).toSeq == Seq((0, delta)))
  }
}
