package repro.io

import org.scalatest.funsuite.AnyFunSuite

class IOModelSpec extends AnyFunSuite {

  test("InMemory is free") {
    assert(IOModel.InMemory.randomAccess(1 << 30) == 0.0)
    assert(IOModel.InMemory.sequentialScan(1 << 30) == 0.0)
  }

  test("Hdd random access = seek + rotation + transfer") {
    val hdd = IOModel.Hdd(seekMs = 5.0, rotationalMs = 5.0, mbPerSec = 80.0)
    val oneMb = 1024L * 1024
    assert(math.abs(hdd.randomAccess(0) - 10.0) < 1e-9)
    assert(math.abs(hdd.randomAccess(oneMb) - (10.0 + 1000.0 / 80)) < 1e-9)
  }

  test("Hdd sequential scan transfers at the configured rate") {
    val hdd = IOModel.Hdd(mbPerSec = 80.0)
    val eightyMb = 80L * 1024 * 1024
    // one positioning + one second of transfer
    assert(math.abs(hdd.sequentialScan(eightyMb) - (11.0 + 1000.0)) < 1e-6)
  }

  test("scanning in one sweep beats per-item random access") {
    val hdd = IOModel.Hdd()
    val items = 1000
    val itemBytes = 4096L
    val scanned = hdd.sequentialScan(items * itemBytes)
    val random = (1 to items).map(_ => hdd.randomAccess(itemBytes)).sum
    assert(scanned < random / 10)
  }

  test("setBytes counts 4 bytes per token plus header") {
    assert(IOModel.setBytes(0, 1) == 8)
    assert(IOModel.setBytes(10, 1) == 48)
    assert(IOModel.setBytes(10, 3) == 64)
  }
}
