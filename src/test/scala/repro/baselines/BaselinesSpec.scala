package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SetOps
import repro.io.IOModel

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.util.{Random, Try}

class BaselinesSpec extends AnyFunSuite {

  private def randomDb(n: Int, nTokens: Int, maxSize: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.fill(n)(SetOps.canon(Seq.fill(rnd.nextInt(maxSize) + 1)(rnd.nextInt(nTokens))))
  }

  /** `body`'s value, computed on a daemon thread; the test fails if that
    * takes over `seconds`, and a body that never returns cannot hold up the
    * run.
    */
  private def withDeadline[T](seconds: Long)(body: => T): T = {
    val pool = Executors.newSingleThreadExecutor { (r: Runnable) =>
      val t = new Thread(r)
      t.setDaemon(true)
      t
    }
    try pool.submit(new Callable[T] { def call(): T = body }).get(seconds, TimeUnit.SECONDS)
    finally pool.shutdownNow()
  }

  private def naiveRange(db: Array[Array[Int]], q: Array[Int], d: Double): Seq[(Int, Double)] =
    db.indices.map(i => (i, SetOps.jaccard(q, db(i)))).filter(_._2 >= d)

  // ---- BruteForce ----

  test("BruteForce.range equals a naive scan") {
    val rnd = new Random(1)
    val db = randomDb(80, 40, 6, 2)
    val bf = new BruteForce(db)
    for (_ <- 1 to 10) {
      val q = db(rnd.nextInt(db.length))
      val d = 0.3 + rnd.nextDouble() * 0.7
      assert(bf.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
             naiveRange(db, q, d).sortBy(_._1))
    }
  }

  test("BruteForce.knn returns the top-k similarities") {
    val db = randomDb(60, 30, 5, 3)
    val bf = new BruteForce(db)
    val q = db(7)
    val expected = db.map(SetOps.jaccard(q, _)).sorted.reverse.take(5).toSeq
    assert(bf.knn(q, 5).hits.map(_.sim).toSeq == expected)
  }

  test("BruteForce disk model charges one sequential scan") {
    val db = randomDb(50, 30, 5, 4)
    val bf = new BruteForce(db, io = IOModel.Hdd())
    val totalBytes = db.map(s => IOModel.setBytes(s.length, 1)).sum
    val expected = IOModel.Hdd().sequentialScan(totalBytes)
    assert(math.abs(bf.range(db(0), 0.5).stats.ioMs - expected) < 1e-9)
  }

  // ---- InvIdx ----

  test("InvIdx.range equals brute force across deltas and instances") {
    val rnd = new Random(5)
    for (trial <- 1 to 10) {
      val db = randomDb(120, 50, 8, rnd.nextLong())
      val inv = new InvIdx(db)
      for (d <- Seq(0.3, 0.5, 0.7, 0.9, 1.0)) {
        val q = db(rnd.nextInt(db.length))
        assert(inv.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
               naiveRange(db, q, d).sortBy(_._1), s"trial $trial delta $d")
      }
    }
  }

  test("InvIdx.range on a non-member query") {
    val db = randomDb(60, 30, 5, 6)
    val inv = new InvIdx(db)
    val q = Array(0, 1, 2, 3)
    assert(inv.range(q, 0.4).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
           naiveRange(db, q, 0.4).sortBy(_._1))
  }

  test("InvIdx.range keeps a hit whose Jaccard equals δ at the length limit") {
    // sim = 7/100 = 0.07, but a closed-form window ends at ⌊7/0.07⌋ = 99.
    val db = Array(Array.range(0, 100), Array.range(200, 205))
    val q = Array.range(0, 7)
    assert(new InvIdx(db).range(q, 0.07).hits.map(h => (h.sid, h.sim)) == Seq((0, 0.07)))
  }

  test("InvIdx.range keeps a subset hit whose Jaccard equals δ") {
    // sim = 7/50 = 0.14, but a closed-form window starts at ⌈0.14 · 50⌉ = 8.
    val db = Array(Array.range(0, 7), Array.range(60, 64))
    val q = Array.range(0, 50)
    assert(new InvIdx(db).range(q, 0.14).hits.map(h => (h.sid, h.sim)) == Seq((0, 0.14)))
  }

  test("InvIdx.range rejects delta = 0") {
    val db = randomDb(10, 10, 3, 7)
    intercept[IllegalArgumentException](new InvIdx(db).range(Array(1), 0.0))
  }

  test("InvIdx.knn matches brute-force similarity profile") {
    val rnd = new Random(8)
    for (trial <- 1 to 10) {
      val db = randomDb(100, 40, 7, rnd.nextLong())
      val inv = new InvIdx(db)
      val bf = new BruteForce(db)
      for (k <- Seq(1, 5, 15)) {
        val q = db(rnd.nextInt(db.length))
        assert(inv.knn(q, k).hits.map(_.sim).sorted == bf.knn(q, k).hits.map(_.sim).sorted,
          s"trial $trial k $k")
      }
    }
  }

  test("InvIdx.knn with various z steps stays exact") {
    val db = randomDb(80, 30, 6, 9)
    val inv = new InvIdx(db)
    val bf = new BruteForce(db)
    val q = db(11)
    for (z <- Seq(0.01, 0.1, 0.3)) {
      assert(inv.knn(q, 8, z).hits.map(_.sim).sorted == bf.knn(q, 8).hits.map(_.sim).sorted)
    }
  }

  test("InvIdx.knn rejects a step z that is not positive instead of looping") {
    val inv = new InvIdx(Array(Array(1, 2), Array(2, 3), Array(5)))
    for (z <- Seq(0.0, -0.05, Double.NaN)) {
      val failure = withDeadline(60)(Try(inv.knn(Array(1, 2), 2, z)).failed.toOption)
      assert(failure.exists(_.isInstanceOf[IllegalArgumentException]), s"z = $z: $failure")
    }
  }

  test("InvIdx.knn fills k even when the query shares tokens with few sets") {
    val db: Array[Array[Int]] = Array(Array(1), Array(2), Array(3), Array(4), Array(5))
    val inv = new InvIdx(db)
    val r = inv.knn(Array(1), 3)
    assert(r.hits.length == 3)
    assert(r.hits.head.sim == 1.0)
  }

  test("InvIdx.sizeBytes grows with the database") {
    val small = new InvIdx(randomDb(20, 20, 4, 10))
    val large = new InvIdx(randomDb(200, 20, 4, 10))
    assert(large.sizeBytes > small.sizeBytes)
  }

  test("InvIdx prunes: candidates below |D| for selective queries") {
    // sets over two disjoint token blocks; querying one block must not
    // touch the other
    val rnd = new Random(11)
    val db: Array[Array[Int]] = Array.tabulate(100) { i =>
      val base = if (i < 50) 0 else 1000
      SetOps.canon(Seq.fill(5)(base + rnd.nextInt(100)))
    }
    val inv = new InvIdx(db)
    val stats = inv.range(db(0), 0.5).stats
    assert(stats.candidates <= 50)
  }

  // ---- DualTrans ----

  test("DualTrans.range equals brute force across deltas and instances") {
    val rnd = new Random(12)
    for (trial <- 1 to 10) {
      val db = randomDb(120, 60, 8, rnd.nextLong())
      val dual = new DualTrans(db, d = 8)
      for (d <- Seq(0.3, 0.6, 0.9)) {
        val q = db(rnd.nextInt(db.length))
        assert(dual.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
               naiveRange(db, q, d).sortBy(_._1), s"trial $trial delta $d")
      }
    }
  }

  test("DualTrans.knn matches brute force for several dimensionalities") {
    val rnd = new Random(13)
    val db = randomDb(150, 50, 8, 14)
    val bf = new BruteForce(db)
    for (dim <- Seq(4, 16, 32)) {
      val dual = new DualTrans(db, d = dim)
      for (k <- Seq(1, 10)) {
        val q = db(rnd.nextInt(db.length))
        assert(dual.knn(q, k).hits.map(_.sim).sorted == bf.knn(q, k).hits.map(_.sim).sorted,
          s"dim $dim k $k")
      }
    }
  }

  test("DualTrans node bound dominates every member similarity") {
    val db = randomDb(100, 40, 6, 16)
    val dual = new DualTrans(db, d = 8)
    // check via range at each member's own similarity: a sound bound lets
    // the member surface at that threshold
    val q = db(3)
    for (d <- db.map(SetOps.jaccard(q, _)).filter(_ > 0.0).distinct)
      assert(dual.range(q, d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) == naiveRange(db, q, d), s"delta $d")
  }

  test("DualTrans prunes when MBR bounds discriminate (size contrast)") {
    // Small sets vs much larger sets: for a small query, nodes holding only
    // large sets have |S|_lb ≫ overlap UB, so their Jaccard bound collapses.
    val rnd = new Random(17)
    val db: Array[Array[Int]] = Array.tabulate(200) { i =>
      if (i < 100) SetOps.canon(Seq.fill(3)(rnd.nextInt(40)))
      else SetOps.canon(Seq.fill(40)(50 + rnd.nextInt(900)))
    }
    val dual = new DualTrans(db, d = 8)
    val stats = dual.range(db(0), 0.5).stats
    assert(stats.candidates < db.length,
      s"no pruning: ${stats.candidates} candidates")
  }

  test("DualTrans index size accounts tree and vectors") {
    val db = randomDb(100, 30, 5, 18)
    val dual = new DualTrans(db, d = 8)
    assert(dual.sizeBytes >= 4L * 8 * 100)
  }
}
